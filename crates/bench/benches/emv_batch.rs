//! Criterion microbenches for the batched element-block EMV engine: the
//! per-element kernel applied `B` times vs one batched `nd² × B` panel
//! evaluation, across batch widths and element dimensions. The batched
//! kernels vectorize across the batch (unit-stride lanes), so the win
//! grows as `nd` shrinks below the SIMD-friendly sizes.
//!
//! `HYMV_BENCH_SMOKE=1` shrinks the measurement budget to a single-pass
//! smoke run (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hymv_la::dense::{emv, interleave_ke, select_batch_kernel};

fn smoke() -> bool {
    std::env::var("HYMV_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

fn bench_emv_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("emv_batch");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(std::time::Duration::from_millis(10))
            .measurement_time(std::time::Duration::from_millis(20));
    } else {
        group
            .sample_size(20)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(600));
    }
    let mut rng = StdRng::seed_from_u64(42);
    // Hex8 Poisson (nd=8, the fig4 hot case), Hex8 elasticity (24),
    // Hex27 elasticity (81).
    for nd in [8usize, 24, 81] {
        for bw in [1usize, 4, 8, 16, 32] {
            // One block of bw element matrices, both layouts.
            let kes: Vec<Vec<f64>> = (0..bw)
                .map(|_| (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut keb = vec![0.0; nd * nd * bw];
            for (b, ke) in kes.iter().enumerate() {
                interleave_ke(ke, &mut keb, nd, bw, b);
            }
            let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut ve = vec![0.0; nd * bw];
            let kernel = select_batch_kernel(bw, 1);
            group.throughput(Throughput::Elements((2 * nd * nd * bw) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("per_element_nd{nd}"), bw),
                &bw,
                |bch, _| {
                    bch.iter(|| {
                        for b in 0..bw {
                            emv(
                                std::hint::black_box(&kes[b]),
                                std::hint::black_box(&ue[b * nd..(b + 1) * nd]),
                                &mut ve[b * nd..(b + 1) * nd],
                            );
                        }
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("batched_nd{nd}"), bw),
                &bw,
                |bch, _| {
                    bch.iter(|| {
                        kernel(
                            std::hint::black_box(&keb),
                            std::hint::black_box(&ue),
                            &mut ve,
                            nd,
                            bw,
                            1,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_emv_batch);
criterion_main!(benches);
