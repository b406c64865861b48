//! Seeded stress test of [`Shared`]'s access check under real concurrency:
//! many short tasks with correct annotations run on four workers and yield
//! inside their guards, so readers overlap and any ordering the dependency
//! graph failed to impose would trip the check. The final region values
//! must equal a serial execution's.

use fftx_taskrt::{Dep, Runtime, Shared};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REGIONS: usize = 6;
const TASKS: usize = 1500;

#[derive(Clone, Copy)]
enum Access {
    In,
    Out,
    InOut,
}

/// One task: the regions it touches (each at most once) and how.
type Spec = Vec<(usize, Access)>;

fn specs(seed: u64) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..TASKS)
        .map(|_| {
            let mut spec: Spec = Vec::new();
            for _ in 0..rng.gen_range(1..=3usize) {
                let r = rng.gen_range(0..REGIONS);
                if spec.iter().all(|&(s, _)| s != r) {
                    let access = match rng.gen_range(0..3u32) {
                        0 => Access::In,
                        1 => Access::Out,
                        _ => Access::InOut,
                    };
                    spec.push((r, access));
                }
            }
            spec
        })
        .collect()
}

/// Task `i`'s update: every written region becomes a mix of the task
/// index, the values it reads and (for `inout`) its own old value.
fn input(i: usize, read_sum: u64) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ read_sum
}

fn serial(specs: &[Spec]) -> Vec<u64> {
    let mut v = vec![0u64; REGIONS];
    for (i, spec) in specs.iter().enumerate() {
        let read_sum = spec
            .iter()
            .filter(|(_, a)| matches!(a, Access::In))
            .fold(0u64, |s, &(r, _)| s.wrapping_add(v[r]));
        let x = input(i, read_sum);
        for &(r, a) in spec {
            match a {
                Access::In => {}
                Access::Out => v[r] = x,
                Access::InOut => v[r] = v[r].rotate_left(7) ^ x,
            }
        }
    }
    v
}

fn concurrent(specs: &[Spec]) -> Vec<u64> {
    let regions: Vec<Shared<u64>> = (0..REGIONS).map(|_| Shared::new(0)).collect();
    let rt = Runtime::new(4);
    for (i, spec) in specs.iter().enumerate() {
        let deps: Vec<Dep> = spec
            .iter()
            .map(|&(r, a)| match a {
                Access::In => regions[r].dep_in(),
                Access::Out => regions[r].dep_out(),
                Access::InOut => regions[r].dep_inout(),
            })
            .collect();
        let touched: Vec<(Shared<u64>, Access)> =
            spec.iter().map(|&(r, a)| (regions[r].clone(), a)).collect();
        rt.spawn(&format!("t{i}"), &deps, move || {
            let mut read_sum = 0u64;
            for (s, _) in touched.iter().filter(|(_, a)| matches!(a, Access::In)) {
                let g = s.read();
                std::thread::yield_now();
                read_sum = read_sum.wrapping_add(*g);
            }
            let x = input(i, read_sum);
            for (s, a) in &touched {
                match a {
                    Access::In => {}
                    Access::Out => {
                        let mut g = s.write();
                        std::thread::yield_now();
                        *g = x;
                    }
                    Access::InOut => {
                        let mut g = s.write();
                        std::thread::yield_now();
                        *g = g.rotate_left(7) ^ x;
                    }
                }
            }
        });
    }
    rt.taskwait();
    rt.shutdown();
    regions.iter().map(|s| *s.read()).collect()
}

#[test]
fn correctly_annotated_tasks_match_the_serial_oracle() {
    for seed in [1u64, 2, 3] {
        let specs = specs(seed);
        assert_eq!(concurrent(&specs), serial(&specs), "seed {seed}");
    }
}
