//! Trace record types — the vocabulary shared by the virtual MPI layer, the
//! task runtime, the KNL simulator and the analysis passes. Modeled on what
//! Extrae records: compute bursts with hardware counters, MPI calls with
//! communicator/byte information, and task lifecycle events.

/// Classification of a compute burst. The classes correspond to the phases
/// the paper identifies in the Fig. 3 timeline, each with a characteristic
/// compute intensity (IPC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateClass {
    /// Preparation of the psi buffers (very low IPC, ~0.06 in the paper).
    PsiPrep,
    /// Packing of the group sticks before the Z FFT.
    Pack,
    /// 1-D FFTs along Z (medium IPC, ~0.52).
    FftZ,
    /// 2-D FFTs in the XY planes (the "main" high-IPC phase, ~0.77).
    FftXy,
    /// Point-wise application of the real-space potential (part of the main
    /// phase in the paper's timeline).
    Vofr,
    /// Unpacking of the group sticks after the backward Z FFT.
    Unpack,
    /// Task-runtime overhead (scheduling, dependency bookkeeping).
    Runtime,
    /// Anything else.
    Other,
}

impl StateClass {
    /// All classes, in timeline-rendering order.
    pub const ALL: [StateClass; 8] = [
        StateClass::PsiPrep,
        StateClass::Pack,
        StateClass::FftZ,
        StateClass::FftXy,
        StateClass::Vofr,
        StateClass::Unpack,
        StateClass::Runtime,
        StateClass::Other,
    ];

    /// Single-character tag used by the ASCII timeline renderer.
    pub fn tag(self) -> char {
        match self {
            StateClass::PsiPrep => 'p',
            StateClass::Pack => 'k',
            StateClass::FftZ => 'Z',
            StateClass::FftXy => 'X',
            StateClass::Vofr => 'V',
            StateClass::Unpack => 'u',
            StateClass::Runtime => 'r',
            StateClass::Other => '.',
        }
    }

    /// Stable numeric code used by the columnar wire format.
    pub fn code(self) -> u32 {
        match self {
            StateClass::PsiPrep => 0,
            StateClass::Pack => 1,
            StateClass::FftZ => 2,
            StateClass::FftXy => 3,
            StateClass::Vofr => 4,
            StateClass::Unpack => 5,
            StateClass::Runtime => 6,
            StateClass::Other => 7,
        }
    }

    /// Inverse of [`StateClass::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        StateClass::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StateClass::PsiPrep => "psi-prep",
            StateClass::Pack => "pack",
            StateClass::FftZ => "fft-z",
            StateClass::FftXy => "fft-xy",
            StateClass::Vofr => "vofr",
            StateClass::Unpack => "unpack",
            StateClass::Runtime => "runtime",
            StateClass::Other => "other",
        }
    }
}

/// MPI-style operation kinds recorded by the communication layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommOp {
    /// `MPI_Alltoall` (the scatter between 1-D and 2-D FFTs).
    Alltoall,
    /// `MPI_Alltoallv` (the pack/unpack of band groups).
    Alltoallv,
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Allgather` / `MPI_Gather`.
    Gather,
    /// Point-to-point send/recv pair.
    SendRecv,
}

impl CommOp {
    /// Single-character tag for timelines.
    pub fn tag(self) -> char {
        match self {
            CommOp::Alltoall => 'A',
            CommOp::Alltoallv => 'a',
            CommOp::Barrier => 'b',
            CommOp::Allreduce => 'R',
            CommOp::Bcast => 'B',
            CommOp::Gather => 'g',
            CommOp::SendRecv => 's',
        }
    }

    /// All operations, in a stable order.
    pub const ALL: [CommOp; 7] = [
        CommOp::Alltoall,
        CommOp::Alltoallv,
        CommOp::Barrier,
        CommOp::Allreduce,
        CommOp::Bcast,
        CommOp::Gather,
        CommOp::SendRecv,
    ];

    /// Stable numeric code used by the columnar wire format.
    pub fn code(self) -> u32 {
        match self {
            CommOp::Alltoall => 0,
            CommOp::Alltoallv => 1,
            CommOp::Barrier => 2,
            CommOp::Allreduce => 3,
            CommOp::Bcast => 4,
            CommOp::Gather => 5,
            CommOp::SendRecv => 6,
        }
    }

    /// Inverse of [`CommOp::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        CommOp::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CommOp::Alltoall => "Alltoall",
            CommOp::Alltoallv => "Alltoallv",
            CommOp::Barrier => "Barrier",
            CommOp::Allreduce => "Allreduce",
            CommOp::Bcast => "Bcast",
            CommOp::Gather => "Gather",
            CommOp::SendRecv => "SendRecv",
        }
    }
}

/// Identifies one execution lane: a hardware thread of one rank. MPI-only
/// executions have `thread == 0` everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lane {
    /// MPI rank.
    pub rank: usize,
    /// Worker-thread index inside the rank.
    pub thread: usize,
}

impl Lane {
    /// Convenience constructor.
    pub fn new(rank: usize, thread: usize) -> Self {
        Lane { rank, thread }
    }
}

/// A compute burst with hardware-counter information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRecord {
    /// Where it ran.
    pub lane: Lane,
    /// Phase classification.
    pub class: StateClass,
    /// Start time in seconds (virtual or wall).
    pub t_start: f64,
    /// End time in seconds.
    pub t_end: f64,
    /// Instructions retired during the burst.
    pub instructions: f64,
    /// Core cycles consumed during the burst.
    pub cycles: f64,
}

impl ComputeRecord {
    /// Burst duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Instructions per cycle of the burst (0 when no cycles were counted).
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions / self.cycles
        } else {
            0.0
        }
    }
}

/// A communication operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommRecord {
    /// Where it was issued.
    pub lane: Lane,
    /// Operation kind.
    pub op: CommOp,
    /// Communicator identifier (stable across ranks of the communicator).
    pub comm_id: u64,
    /// Number of ranks in the communicator.
    pub comm_size: usize,
    /// Bytes this rank contributed (sent) to the operation.
    pub bytes: usize,
    /// Start time in seconds.
    pub t_start: f64,
    /// End time in seconds.
    pub t_end: f64,
}

impl CommRecord {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Task lifecycle record (creation → execution window).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Lane the task executed on.
    pub lane: Lane,
    /// Runtime-assigned task id.
    pub task_id: u64,
    /// Task label (step name or FFT index).
    pub label: String,
    /// Creation (submission) time.
    pub t_created: f64,
    /// Execution start time.
    pub t_start: f64,
    /// Execution end time.
    pub t_end: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let mut tags: Vec<char> = StateClass::ALL.iter().map(|c| c.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), StateClass::ALL.len());
    }

    #[test]
    fn compute_record_derives() {
        let r = ComputeRecord {
            lane: Lane::new(1, 2),
            class: StateClass::FftXy,
            t_start: 1.0,
            t_end: 3.0,
            instructions: 4e9,
            cycles: 5e9,
        };
        assert_eq!(r.duration(), 2.0);
        assert!((r.ipc() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ipc_of_zero_cycles_is_zero() {
        let r = ComputeRecord {
            lane: Lane::new(0, 0),
            class: StateClass::Other,
            t_start: 0.0,
            t_end: 0.0,
            instructions: 0.0,
            cycles: 0.0,
        };
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn comm_record_duration() {
        let c = CommRecord {
            lane: Lane::new(0, 0),
            op: CommOp::Alltoall,
            comm_id: 7,
            comm_size: 8,
            bytes: 1024,
            t_start: 0.5,
            t_end: 0.75,
        };
        assert!((c.duration() - 0.25).abs() < 1e-15);
        assert_eq!(c.op.name(), "Alltoall");
        assert_eq!(c.op.tag(), 'A');
    }

    #[test]
    fn names_nonempty() {
        for c in StateClass::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
