//! Integration tests of the virtual MPI layer: semantics of every
//! collective, the paper's two communicator families, concurrent tagged
//! collectives, and tracing.

use fftx_trace::{CommOp, TraceSink};
use fftx_vmpi::World;
use std::time::Duration;

fn world(n: usize) -> World {
    World::new(n).with_timeout(Duration::from_secs(10))
}

#[test]
fn barrier_completes() {
    world(8).run(|comm| {
        for _ in 0..3 {
            comm.barrier();
        }
    });
}

#[test]
fn bcast_distributes_root_data() {
    let out = world(5).run(|comm| {
        let data = if comm.rank() == 2 {
            vec![10u64, 20, 30]
        } else {
            Vec::new()
        };
        comm.bcast(2, data)
    });
    for v in out {
        assert_eq!(v, vec![10, 20, 30]);
    }
}

#[test]
fn allreduce_sums_elementwise() {
    let out = world(4).run(|comm| {
        let r = comm.rank() as f64;
        comm.allreduce_sum(vec![r, 2.0 * r, 1.0])
    });
    for v in out {
        assert_eq!(v, vec![6.0, 12.0, 4.0]); // sum 0..4, 2*sum, 4*1
    }
}

#[test]
fn allreduce_max_with_custom_op() {
    let out = world(6).run(|comm| {
        let r = comm.rank() as i64;
        comm.allreduce(vec![r, -r], |a, b| *a.max(b))
    });
    for v in out {
        assert_eq!(v, vec![5, 0]);
    }
}

#[test]
fn allgather_collects_variable_lengths() {
    let out = world(4).run(|comm| {
        let mine: Vec<usize> = (0..comm.rank()).collect();
        comm.allgather(mine)
    });
    for v in out {
        assert_eq!(v.len(), 4);
        for (j, part) in v.iter().enumerate() {
            assert_eq!(part, &(0..j).collect::<Vec<_>>());
        }
    }
}

#[test]
fn alltoall_transposes_chunks() {
    let n = 4;
    let count = 3;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        // Chunk j carries (me, j, k) encoded.
        let send: Vec<u64> = (0..n * count)
            .map(|i| (me * 100 + (i / count) * 10 + i % count) as u64)
            .collect();
        comm.alltoall(&send, 0)
    });
    for (me, recv) in out.into_iter().enumerate() {
        assert_eq!(recv.len(), n * count);
        for j in 0..n {
            for k in 0..count {
                // From rank j, the chunk addressed to me.
                assert_eq!(recv[j * count + k], (j * 100 + me * 10 + k) as u64);
            }
        }
    }
}

#[test]
fn alltoallv_with_ragged_counts() {
    let n = 3;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        // Send `dst + 1` copies of `me*10 + dst` to each rank.
        let send: Vec<Vec<u32>> = (0..n)
            .map(|dst| vec![(me * 10 + dst) as u32; dst + 1])
            .collect();
        comm.alltoallv(send, 0)
    });
    for (me, recv) in out.into_iter().enumerate() {
        assert_eq!(recv.len(), n);
        for (j, part) in recv.iter().enumerate() {
            assert_eq!(part, &vec![(j * 10 + me) as u32; me + 1], "rank {me} from {j}");
        }
    }
}

#[test]
fn alltoall_into_reuses_caller_buffer_across_rounds() {
    let n = 4;
    let count = 2;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        let mut recv = Vec::new();
        let mut all = Vec::new();
        for round in 0..3u64 {
            let send: Vec<u64> = (0..n * count)
                .map(|i| round * 1000 + (me * 100 + (i / count) * 10 + i % count) as u64)
                .collect();
            comm.alltoall_into(&send, &mut recv, 0);
            all.push(recv.clone());
        }
        all
    });
    for (me, rounds) in out.into_iter().enumerate() {
        for (round, recv) in rounds.into_iter().enumerate() {
            for j in 0..n {
                for k in 0..count {
                    assert_eq!(
                        recv[j * count + k],
                        round as u64 * 1000 + (j * 100 + me * 10 + k) as u64
                    );
                }
            }
        }
    }
}

#[test]
fn alltoall_into_matches_owning_api() {
    let n = 3;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        let send: Vec<u32> = (0..n * 2).map(|i| (me * 10 + i) as u32).collect();
        let owned = comm.alltoall(&send, 0);
        let mut recv = Vec::new();
        comm.alltoall_into(&send, &mut recv, 1);
        (owned, recv)
    });
    for (owned, recv) in out {
        assert_eq!(owned, recv);
    }
}

#[test]
fn alltoallv_into_flat_segments_match_nested_api() {
    let n = 3;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        let nested: Vec<Vec<u32>> = (0..n)
            .map(|dst| vec![(me * 10 + dst) as u32; dst + 1])
            .collect();
        let counts: Vec<usize> = nested.iter().map(|v| v.len()).collect();
        let flat: Vec<u32> = nested.iter().flatten().copied().collect();
        let owned = comm.alltoallv(nested, 0);
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        comm.alltoallv_into(&flat, &counts, &mut recv, &mut recv_counts, 1);
        (owned, recv, recv_counts)
    });
    for (owned, recv, recv_counts) in out {
        let flat_owned: Vec<u32> = owned.iter().flatten().copied().collect();
        let owned_counts: Vec<usize> = owned.iter().map(|v| v.len()).collect();
        assert_eq!(flat_owned, recv);
        assert_eq!(owned_counts, recv_counts);
    }
}

#[test]
fn alltoallv_into_reuses_buffers_with_changing_counts() {
    // Counts differ per round; recv/recv_counts are refilled correctly.
    let n = 2;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        let mut all = Vec::new();
        for round in 1..4usize {
            let counts = vec![round, round * 2];
            let flat: Vec<u64> = (0..counts.iter().sum())
                .map(|i| (me * 1000 + round * 100 + i) as u64)
                .collect();
            comm.alltoallv_into(&flat, &counts, &mut recv, &mut recv_counts, 0);
            all.push((recv.clone(), recv_counts.clone()));
        }
        all
    });
    for (me, rounds) in out.into_iter().enumerate() {
        for (ri, (recv, recv_counts)) in rounds.into_iter().enumerate() {
            let round = ri + 1;
            // Peer j sent us segment `me` of its counts [round, 2*round].
            assert_eq!(recv_counts, vec![round * (me + 1); n]);
            let mut off = 0;
            for (j, &cnt) in recv_counts.iter().enumerate().take(n) {
                let peer_off = (0..me).map(|d| round * (d + 1)).sum::<usize>();
                for k in 0..cnt {
                    assert_eq!(recv[off + k], (j * 1000 + round * 100 + peer_off + k) as u64);
                }
                off += cnt;
            }
        }
    }
}

#[test]
fn send_recv_point_to_point() {
    let out = world(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.5f64, 2.5]);
            comm.recv::<f64>(1, 8)
        } else {
            let got = comm.recv::<f64>(0, 7);
            comm.send(0, 8, vec![got[0] + got[1]]);
            got
        }
    });
    assert_eq!(out[0], vec![4.0]);
    assert_eq!(out[1], vec![1.5, 2.5]);
}

#[test]
fn messages_with_same_tag_preserve_order() {
    let out = world(2).run(|comm| {
        if comm.rank() == 0 {
            for i in 0..10u32 {
                comm.send(1, 0, vec![i]);
            }
            Vec::new()
        } else {
            (0..10).map(|_| comm.recv::<u32>(0, 0)[0]).collect::<Vec<_>>()
        }
    });
    assert_eq!(out[1], (0..10).collect::<Vec<_>>());
}

/// The paper's communicator topology: P = R*T ranks; pack groups are T
/// *neighbouring* ranks (R sub-communicators), scatter groups are R ranks
/// *strided* by T (T sub-communicators: "1, 9, 17, ...").
#[test]
fn split_builds_the_papers_two_families() {
    let (r, t) = (4, 2);
    let p = r * t;
    let out = world(p).run(|comm| {
        let me = comm.rank();
        let pack = comm.split((me / t) as u64, me % t);
        let scatter = comm.split((me % t) as u64, me / t);
        (
            pack.members().to_vec(),
            pack.rank(),
            scatter.members().to_vec(),
            scatter.rank(),
        )
    });
    for (me, (pack_members, pack_rank, scat_members, scat_rank)) in out.into_iter().enumerate() {
        let g = me / t;
        let expect_pack: Vec<usize> = (g * t..(g + 1) * t).collect();
        assert_eq!(pack_members, expect_pack, "rank {me} pack group");
        assert_eq!(pack_rank, me % t);
        let i = me % t;
        let expect_scat: Vec<usize> = (0..r).map(|q| q * t + i).collect();
        assert_eq!(scat_members, expect_scat, "rank {me} scatter group");
        assert_eq!(scat_rank, me / t);
    }
}

#[test]
fn split_groups_are_independent() {
    // An alltoall inside one subgroup must not interfere with the other's.
    let out = world(4).run(|comm| {
        let sub = comm.split((comm.rank() % 2) as u64, comm.rank());
        let send = vec![comm.rank() as u64; sub.size()];
        sub.alltoall(&send, 0)
    });
    assert_eq!(out[0], vec![0, 2]);
    assert_eq!(out[2], vec![0, 2]);
    assert_eq!(out[1], vec![1, 3]);
    assert_eq!(out[3], vec![1, 3]);
}

#[test]
fn sibling_split_ids_do_not_depend_on_completion_order() {
    // Two siblings (even and odd world ranks) each split once more. The
    // sibling named `first` finishes its split before the other starts
    // (a token from each of its ranks releases the partner rank), so the
    // children complete in opposite orders in the two runs.
    let child_ids = |first: usize| {
        world(4).run(move |comm| {
            let me = comm.rank();
            let sibling = comm.split((me % 2) as u64, me);
            if me % 2 != first {
                comm.recv::<u8>(me ^ 1, 0);
            }
            let child = sibling.split(0, sibling.rank());
            if me % 2 == first {
                comm.send(me ^ 1, 0, vec![1u8]);
            }
            child.id()
        })
    };
    let ids = child_ids(0);
    assert_eq!(ids, child_ids(1));
    assert_eq!((ids[0], ids[1]), (ids[2], ids[3]));
    assert_ne!(ids[0], ids[1], "the two children share an id");
}

#[test]
fn dup_creates_independent_context() {
    let out = world(3).run(|comm| {
        let dup = comm.dup();
        assert_ne!(dup.id(), comm.id());
        assert_eq!(dup.members(), comm.members());
        // Interleave collectives on the two contexts.
        let a = comm.allreduce_sum(vec![1.0]);
        let b = dup.allreduce_sum(vec![2.0]);
        (a[0], b[0])
    });
    for (a, b) in out {
        assert_eq!((a, b), (3.0, 6.0));
    }
}

#[test]
fn concurrent_tagged_alltoalls_from_threads() {
    // Each rank runs 4 threads, each doing an alltoall with its own tag —
    // the situation the task-based miniapp creates. Scheduling order across
    // ranks is arbitrary; tags must keep instances separate.
    let n = 4;
    let tags = 4u32;
    let out = world(n).run(|comm| {
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for tag in 0..tags {
                let comm = comm.clone();
                handles.push(s.spawn(move || {
                    let send: Vec<u64> = (0..n)
                        .map(|dst| (tag as usize * 1000 + comm.rank() * 10 + dst) as u64)
                        .collect();
                    (tag, comm.alltoall(&send, tag))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    });
    for (me, results) in out.into_iter().enumerate() {
        for (tag, recv) in results {
            for (j, &v) in recv.iter().enumerate() {
                assert_eq!(v, (tag as usize * 1000 + j * 10 + me) as u64);
            }
        }
    }
}

#[test]
fn repeated_collectives_advance_sequence() {
    let out = world(3).run(|comm| {
        let mut acc = Vec::new();
        for i in 0..5 {
            acc.push(comm.allreduce_sum(vec![i as f64])[0]);
        }
        acc
    });
    for v in out {
        assert_eq!(v, vec![0.0, 3.0, 6.0, 9.0, 12.0]);
    }
}

#[test]
fn trace_records_comm_operations() {
    let sink = TraceSink::new();
    World::new(2)
        .with_trace(sink.clone())
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            comm.barrier();
            let send = vec![1u8, 2];
            comm.alltoall(&send, 0);
        });
    let trace = sink.finish();
    let barriers = trace.comm.iter().filter(|r| r.op == CommOp::Barrier).count();
    let a2a = trace.comm.iter().filter(|r| r.op == CommOp::Alltoall).count();
    assert_eq!(barriers, 2);
    assert_eq!(a2a, 2);
    for r in trace.comm.iter().filter(|r| r.op == CommOp::Alltoall) {
        assert_eq!(r.bytes, 2);
        assert_eq!(r.comm_size, 2);
        assert!(r.t_end >= r.t_start);
    }
}

#[test]
#[should_panic(expected = "vmpi deadlock")]
fn missing_participant_panics_with_diagnostic() {
    world(2)
        .with_timeout(Duration::from_millis(100))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.barrier();
            }
            // rank 1 never joins; rank 0 must panic with a deadlock message.
        });
}

#[test]
#[should_panic(expected = "type mismatch")]
fn type_mismatch_is_detected() {
    world(2)
        .with_timeout(Duration::from_secs(5))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1u32]);
            } else {
                let _ = comm.recv::<f64>(0, 0);
            }
        });
}

#[test]
fn large_alltoall_moves_megabytes() {
    let n = 8;
    let count = 16 * 1024; // 16k f64 per pair = 1 MiB per rank
    let out = world(n).run(|comm| {
        let me = comm.rank() as f64;
        let send: Vec<f64> = (0..n * count).map(|i| me + i as f64 * 1e-9).collect();
        let recv = comm.alltoall(&send, 0);
        recv.iter().sum::<f64>()
    });
    assert_eq!(out.len(), n);
    for s in out {
        assert!(s.is_finite());
    }
}
