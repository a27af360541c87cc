//! `Backend::Cpu` vs `Backend::Simd` on the batched MLP round (forward +
//! backward + Adam apply) at the grid's batch size, over the registry's
//! generator and student shapes. The SIMD bars only appear on machines
//! with AVX, where `registered_backends()` lists `simd`; the gate itself
//! lives in `perfgrid` (this bench is for profiling, not CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use synrd_ml::backend::registered_backends;
use synrd_ml::{Activation, BatchWorkspace, Mlp};

fn backend_round(c: &mut Criterion) {
    let batch = 48usize;
    let shapes: [(&str, Vec<usize>, Activation); 3] = [
        ("generator-o96", vec![16, 64, 96], Activation::Linear),
        ("generator-o320", vec![16, 64, 320], Activation::Linear),
        ("student-o96", vec![96, 64, 1], Activation::Sigmoid),
    ];
    for (name, sizes, act) in shapes {
        let mut group = c.benchmark_group(format!("mlp_round_{name}"));
        group.sample_size(20);
        let mut rng = StdRng::seed_from_u64(33);
        let net = Mlp::new(&sizes, act, &mut rng);
        let xs: Vec<f64> = (0..batch * sizes[0])
            .map(|i| (i as f64 * 0.137).sin())
            .collect();
        let grads: Vec<f64> = (0..batch * sizes[sizes.len() - 1])
            .map(|i| (i as f64 * 0.061).cos() * 0.1)
            .collect();
        for backend in registered_backends() {
            group.bench_with_input(BenchmarkId::new(backend.name(), batch), &(), |b, ()| {
                let mut net = net.clone();
                let mut ws = BatchWorkspace::with_backend(backend);
                b.iter(|| {
                    net.forward_batch(&xs, batch, &mut ws);
                    net.backward_apply_batch(&mut ws, &grads);
                    black_box(ws.output().len());
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, backend_round);
criterion_main!(benches);
