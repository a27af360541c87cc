//! Records the kernel performance trajectory to `BENCH_pgm.json` (factor
//! algebra), `BENCH_marginal.json` (marginal-counting engine),
//! `BENCH_sampling.json` (row-generation engine), `BENCH_dataset.json`
//! (bit-packed columnar storage), `BENCH_ml.json` (batched MLP kernels) and
//! `BENCH_fit.json` (intra-fit parallelism).
//!
//! Each kernel is timed against its one naive oracle. A small fixed grid of
//! calibration problems runs through the stride kernels and the naive
//! factor algebra, plus end-to-end mirror descent and sampler
//! construction. The synthesizer selection paths (AIM round loops, MST's
//! all-pairs sweep) run through the `MarginalEngine` and the naive per-row
//! counter. Batched clique-major `TreeSampler::sample_columns` runs against
//! the per-row `NaiveSampler`, with batched-vs-naive and
//! parallel-vs-sequential bit-identity asserted on every problem. The
//! storage side records decode throughput and packed bytes per row across
//! the ten registry datasets. Results are written as canonical JSON (via
//! `synrd-store`) so the repo carries a comparable perf record from PR to
//! PR.
//!
//! ```text
//! cargo run --release -p synrd-bench --bin perfgrid -- \
//!     [--quick] [--out PATH] [--marginal-out PATH] [--sampling-out PATH] \
//!     [--dataset-out PATH] [--ml-out PATH] [--fit-out PATH]
//! ```
//!
//! `--quick` shrinks repetitions for CI smoke runs; the JSON schemas are
//! identical. An unknown flag or a flag missing its value exits with code
//! 2. Timings are medians over repeated runs; `speedup` is
//! `naive_ns / engine_ns` for the same problem.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use synrd_data::{Marginal, MarginalEngine};
use synrd_pgm::{
    calibrate_into, calibrate_naive, estimate, estimate_naive, factor_buffer_allocs,
    CalibratedTree, CalibrationWorkspace, EstimationOptions, Factor, FittedModel, JunctionTree,
    NaiveSampler, NoisyMeasurement, TreeSampler,
};
use synrd_store::JsonValue;

/// One calibration problem of the fixed grid.
struct Problem {
    name: String,
    tree: JunctionTree,
    pots: Vec<Factor>,
}

/// Chain of adjacent pairs over `d` attributes of cardinality `card`
/// (shared with the criterion benches via [`synrd_bench::pgm_chain_problem`]).
fn chain(d: usize, card: usize) -> Problem {
    let (tree, pots) = synrd_bench::pgm_chain_problem(d, card);
    Problem {
        name: format!("chain-d{d}-c{card}"),
        tree,
        pots,
    }
}

/// Overlapping triples (width-3 cliques) over `d` attributes.
fn triples(d: usize, card: usize) -> Problem {
    let (tree, pots) = synrd_bench::pgm_triples_problem(d, card);
    Problem {
        name: format!("triples-d{d}-c{card}"),
        tree,
        pots,
    }
}

/// Median wall time (ns) of `reps` timed runs of `body`.
fn median_ns(reps: usize, mut body: impl FnMut()) -> f64 {
    interleaved_median_ns(reps, &mut [&mut body])[0]
}

/// Median wall time (ns) of each body over `reps` rounds, each round
/// running every body once in turn, so a change in host load moves every
/// median alike and leaves their ratios comparable.
fn interleaved_median_ns(reps: usize, bodies: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(reps); bodies.len()];
    for _ in 0..reps {
        for (body, times) in bodies.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            body();
            times.push(t.elapsed().as_secs_f64() * 1e9);
        }
    }
    samples
        .into_iter()
        .map(|mut times| {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            times[times.len() / 2]
        })
        .collect()
}

/// The marginal-engine half of the perf record: time the synthesizer
/// selection paths through the engine vs the naive counter and write
/// `BENCH_marginal.json`. Returns the minimum selection-path speedup.
fn marginal_section(quick: bool, out_path: &str) -> f64 {
    let rows = if quick { 40_000 } else { 120_000 };
    let d = 12usize;
    let shape = synrd_bench::marginal_bench_shape(d);
    let data = synrd_bench::marginal_bench_dataset(rows, &shape);
    let reps = if quick { 5 } else { 15 };
    let pairs: Vec<Vec<usize>> = (0..d)
        .flat_map(|a| ((a + 1)..d).map(move |b| vec![a, b]))
        .collect();
    let one_ways: Vec<Vec<usize>> = (0..d).map(|a| vec![a]).collect();
    let mut bench_rows = Vec::new();
    let mut selection_speedups = Vec::new();

    // Sweep benches: a batch of attribute sets counted once — naive loops
    // over per-set row scans, the engine answers the batch in fused sweeps.
    let sweeps: [(&str, &[Vec<usize>], bool); 2] = [
        ("one-way-sweep", &one_ways, false),
        ("mst-pairs", &pairs, true), // MST phase 2: all O(d²) joints
    ];
    for (name, sets, is_selection) in sweeps {
        let naive_ns = median_ns(reps, || {
            let mut sink = 0.0;
            for attrs in sets {
                sink += Marginal::count_naive(&data, attrs).expect("count").total();
            }
            black_box(sink);
        });
        let engine_ns = median_ns(reps, || {
            let mut engine = MarginalEngine::new(&data);
            let batch = engine.count_many(sets).expect("count");
            black_box(batch.iter().map(Marginal::total).sum::<f64>());
        });
        let speedup = naive_ns / engine_ns;
        if is_selection {
            selection_speedups.push(speedup);
        }
        println!(
            "marginal   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
            name, engine_ns, naive_ns, speedup
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("sets", JsonValue::Uint(sets.len() as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
        ]));
    }

    // AIM round loop: every round re-scores the whole pair workload against
    // the (unchanged) true counts. The naive path recounts per round; the
    // engine counts once and serves rounds 2..R from the cache.
    let rounds = 5usize;
    let naive_ns = median_ns(reps, || {
        let mut sink = 0.0;
        for _ in 0..rounds {
            for attrs in &pairs {
                sink += Marginal::count_naive(&data, attrs).expect("count").total();
            }
        }
        black_box(sink);
    });
    let engine_ns = median_ns(reps, || {
        let mut engine = MarginalEngine::new(&data);
        let mut sink = 0.0;
        for _ in 0..rounds {
            for attrs in &pairs {
                sink += engine.count(attrs).expect("count").total();
            }
        }
        black_box(sink);
    });
    let aim_speedup = naive_ns / engine_ns;
    selection_speedups.push(aim_speedup);
    let aim_name = format!("aim-round-loop-x{rounds}");
    println!(
        "marginal   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
        aim_name, engine_ns, naive_ns, aim_speedup
    );
    bench_rows.push(JsonValue::obj(vec![
        ("name", JsonValue::Str(aim_name)),
        ("sets", JsonValue::Uint(pairs.len() as u64)),
        ("rounds", JsonValue::Uint(rounds as u64)),
        ("engine_ns", JsonValue::Num(engine_ns)),
        ("naive_ns", JsonValue::Num(naive_ns)),
        ("speedup", JsonValue::Num(aim_speedup)),
    ]));

    let selection_min = selection_speedups
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-marginal/1".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        ("attrs", JsonValue::Uint(d as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("selection_speedup_min", JsonValue::Num(selection_min)),
                ("aim_round_loop_speedup", JsonValue::Num(aim_speedup)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_marginal.json");
    println!("wrote {out_path} (min selection-path speedup {selection_min:.2}x)");
    selection_min
}

/// Mirror-descent fit of chain-pair measurements over `d` attributes of
/// cardinality `card` (the MST/AIM measurement shape).
fn fitted_chain(d: usize, card: usize) -> FittedModel {
    let domain = vec![card; d];
    let ms: Vec<NoisyMeasurement> = (0..d - 1)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..card * card)
                .map(|k| 60.0 + 17.0 * (k as f64).sin())
                .collect(),
            sigma: 2.0,
        })
        .collect();
    fit(&domain, ms)
}

/// Same, with overlapping width-3 cliques (the PrivMRF triple shape).
fn fitted_triples(d: usize, card: usize) -> FittedModel {
    let domain = vec![card; d];
    let ms: Vec<NoisyMeasurement> = (0..d - 2)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1, a + 2],
            values: (0..card * card * card)
                .map(|k| 45.0 + 11.0 * (k as f64 * 0.7).cos())
                .collect(),
            sigma: 2.0,
        })
        .collect();
    fit(&domain, ms)
}

fn fit(domain: &[usize], ms: Vec<NoisyMeasurement>) -> FittedModel {
    estimate(
        domain,
        &ms,
        EstimationOptions {
            iterations: 40,
            fit_threads: 1,
        },
    )
    .expect("fit")
}

/// The sampling-engine third of the perf record: batched clique-major
/// `sample_columns` (the call production makes, which allocates its
/// buffers per call) vs the per-row `NaiveSampler` on fitted models, with
/// bit-identity (batched vs naive, parallel vs sequential) asserted on
/// every problem. Writes `BENCH_sampling.json`; returns the minimum
/// `sample_columns` speedup.
fn sampling_section(quick: bool, out_path: &str) -> f64 {
    let rows = if quick { 30_000 } else { 100_000 };
    let reps = if quick { 5 } else { 11 };
    let problems: Vec<(String, FittedModel)> = vec![
        ("chain-d10-c4".to_string(), fitted_chain(10, 4)),
        ("chain-d6-c10".to_string(), fitted_chain(6, 10)),
        ("triples-d8-c4".to_string(), fitted_triples(8, 4)),
    ];
    let mut bench_rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, model) in &problems {
        let sampler = TreeSampler::new(model).expect("sampler");
        let oracle = NaiveSampler::new(model).expect("sampler");
        // Bit-identity first (batched vs oracle, chunk-parallel vs
        // sequential), on the same seed the timings use.
        let batched = sampler.sample_columns(rows, &mut StdRng::seed_from_u64(17));
        let naive = oracle.sample_columns(rows, &mut StdRng::seed_from_u64(17));
        assert_eq!(batched, naive, "{name}: batched != naive");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        let chunked = pool.install(|| {
            sampler.sample_columns_chunked(rows, &mut StdRng::seed_from_u64(17), rows / 7 + 1)
        });
        assert_eq!(batched, chunked, "{name}: parallel != sequential");

        let engine_ns = median_ns(reps, || {
            let cols = sampler.sample_columns(rows, &mut StdRng::seed_from_u64(17));
            black_box(cols[0][rows - 1]);
        });
        let naive_ns = median_ns(reps, || {
            let cols = oracle.sample_columns(rows, &mut StdRng::seed_from_u64(17));
            black_box(cols[0][rows - 1]);
        });
        let speedup = naive_ns / engine_ns;
        speedups.push(speedup);
        let rows_per_s = rows as f64 / (engine_ns * 1e-9);
        println!(
            "sampling   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x   \
             ({:.1}M rows/s)",
            name,
            engine_ns,
            naive_ns,
            speedup,
            rows_per_s / 1e6
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.clone())),
            (
                "cliques",
                JsonValue::Uint(model.tree().cliques().len() as u64),
            ),
            ("rows", JsonValue::Uint(rows as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("rows_per_second", JsonValue::Num(rows_per_s)),
            ("bit_identical", JsonValue::Bool(true)),
            ("parallel_bit_identical", JsonValue::Bool(true)),
        ]));
    }
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-sampling/1".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("sample_columns_speedup_min", JsonValue::Num(min_speedup)),
                ("sample_columns_speedup_geomean", JsonValue::Num(geomean)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_sampling.json");
    println!("wrote {out_path} (min sample_columns speedup {min_speedup:.2}x)");
    min_speedup
}

/// The dataset-storage quarter of the perf record: bulk decode throughput
/// and packed-vs-unpacked bytes per row across the ten registry datasets.
/// (The packed counting kernels are timed against `count_naive` in the
/// marginal section.) Writes `BENCH_dataset.json`; returns the minimum
/// bytes-per-row compression ratio.
fn dataset_section(quick: bool, out_path: &str) -> f64 {
    use synrd_data::BenchmarkDataset;

    let rows = if quick { 40_000 } else { 120_000 };
    let d = 12usize;
    let shape = synrd_bench::marginal_bench_shape(d);
    let data = synrd_bench::marginal_bench_dataset(rows, &shape);
    let reps = if quick { 5 } else { 15 };

    // Bulk decode throughput: unpack every column of the bench grid into a
    // reused scratch buffer (the consumer path for per-code readers).
    let mut scratch = Vec::new();
    let decode_ns = median_ns(reps, || {
        let mut sink = 0u64;
        for a in 0..d {
            data.decode_column_into(a, &mut scratch).expect("decode");
            sink = sink.wrapping_add(u64::from(scratch[rows - 1]));
        }
        black_box(sink);
    });
    let decoded_codes = (rows * d) as f64;
    let decode_rate = decoded_codes / (decode_ns * 1e-9);
    println!(
        "dataset    {:<14} decode {:>10.0} ns   ({:.0}M codes/s)",
        "decode-all",
        decode_ns,
        decode_rate / 1e6
    );

    // Storage footprint across the registry: packed words vs the 4-byte
    // codes the pre-packing Dataset stored, per dataset and per row.
    let reg_rows = if quick { 5_000 } else { 20_000 };
    let mut registry_rows = Vec::new();
    let mut min_ratio = f64::INFINITY;
    for bd in BenchmarkDataset::ALL {
        let ds = bd.generate(reg_rows, 11);
        let packed = ds.packed_bytes();
        let unpacked = ds.unpacked_bytes();
        let ratio = unpacked as f64 / packed as f64;
        min_ratio = min_ratio.min(ratio);
        let packed_per_row = packed as f64 / reg_rows as f64;
        // Aggregate code width across the domain, in bits per row.
        let bits_per_row: usize = (0..ds.n_attrs())
            .map(|a| ds.packed_column(a).expect("attr").width() as usize)
            .sum();
        println!(
            "dataset    {:<14} packed {:>6.1} B/row   u32 {:>5} B/row   ratio {:>5.2}x   \
             ({} bits)",
            bd.id(),
            packed_per_row,
            ds.n_attrs() * 4,
            ratio,
            bits_per_row
        );
        registry_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(bd.id().to_string())),
            ("attrs", JsonValue::Uint(ds.n_attrs() as u64)),
            ("rows", JsonValue::Uint(reg_rows as u64)),
            ("packed_bytes", JsonValue::Uint(packed as u64)),
            ("unpacked_bytes", JsonValue::Uint(unpacked as u64)),
            ("packed_bytes_per_row", JsonValue::Num(packed_per_row)),
            ("code_bits_per_row", JsonValue::Uint(bits_per_row as u64)),
            ("compression_ratio", JsonValue::Num(ratio)),
        ]));
    }

    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-dataset/2".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        ("attrs", JsonValue::Uint(d as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        (
            "decode",
            JsonValue::obj(vec![
                ("decode_ns", JsonValue::Num(decode_ns)),
                ("codes", JsonValue::Num(decoded_codes)),
                ("codes_per_second", JsonValue::Num(decode_rate)),
            ]),
        ),
        ("registry", JsonValue::Arr(registry_rows)),
        (
            "summary",
            JsonValue::obj(vec![("compression_ratio_min", JsonValue::Num(min_ratio))]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_dataset.json");
    println!("wrote {out_path} (min compression {min_ratio:.2}x)");
    min_ratio
}

/// The ML-kernel fifth of the perf record: one PATECTGAN-shaped training
/// round (batched forward + one minibatch Adam step at batch 48) through
/// the batched `BatchWorkspace` kernels vs the retained per-example oracle,
/// plus `Backend::Simd` vs `Backend::Cpu` on the same rounds, with
/// bit-identity of the fitted states asserted on every shape and every
/// registered backend before timing. Writes `BENCH_ml.json`; returns
/// (minimum gated round speedup over the oracle, minimum gated
/// simd-over-cpu speedup — `+inf` when SIMD is unsupported on this CPU).
fn ml_section(quick: bool, out_path: &str) -> (f64, f64) {
    use synrd_ml::backend::{detected_cpu_features, registered_backends};
    use synrd_ml::{Activation, Backend, BatchWorkspace, Mlp};

    let batch = 48usize;
    let reps = if quick { 51 } else { 201 };
    let identity_rounds = 5usize;
    let simd = registered_backends().contains(&Backend::Simd);
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|(name, on)| format!("{}{}", if *on { "+" } else { "-" }, name))
        .collect();
    println!(
        "ml         cpu features [{}]   simd backend {}",
        features.join(" "),
        if simd { "supported" } else { "unsupported" }
    );
    // The two generator shapes bracket the one-hot widths the benchmark
    // grid produces (saw2018-scale and a wide domain); all three shapes
    // gate the batched-over-oracle speedup, while the SIMD-over-CPU gate binds
    // on the generator shapes only (the student's 1-wide output layer gives
    // SIMD little to chew on).
    let shapes: [(&str, Vec<usize>, Activation, bool); 3] = [
        ("generator-o96", vec![16, 64, 96], Activation::Linear, true),
        (
            "generator-o320",
            vec![16, 64, 320],
            Activation::Linear,
            true,
        ),
        ("student-o96", vec![96, 64, 1], Activation::Sigmoid, false),
    ];
    let mut bench_rows = Vec::new();
    let mut gated_speedups = Vec::new();
    let mut gated_simd_speedups = Vec::new();
    for (name, sizes, act, simd_gated) in shapes {
        let mut rng = StdRng::seed_from_u64(33);
        let net = Mlp::new(&sizes, act, &mut rng);
        let n_in = batch * sizes[0];
        let n_out = batch * sizes[sizes.len() - 1];
        let xs: Vec<f64> = (0..n_in).map(|i| (i as f64 * 0.137).sin()).collect();
        let grads: Vec<f64> = (0..n_out).map(|i| (i as f64 * 0.061).cos() * 0.1).collect();

        // Bit-identity first: N batched rounds on every registered backend
        // vs N per-example-oracle rounds from the same initial state must
        // land on the same weights, Adam moments and step counter, bit for
        // bit.
        let mut naive = net.clone();
        for _ in 0..identity_rounds {
            let caches = naive.forward_batch_naive(&xs, batch);
            naive.backward_apply_batch_naive(&caches, &grads);
        }
        for backend in registered_backends() {
            let mut batched = net.clone();
            let mut ws = BatchWorkspace::with_backend(backend);
            for _ in 0..identity_rounds {
                batched.forward_batch(&xs, batch, &mut ws);
                batched.backward_apply_batch(&mut ws, &grads);
            }
            assert_eq!(
                batched,
                naive,
                "{name}: {} batched round != per-example oracle",
                backend.name()
            );
        }

        // Timings: one full round per rep, the CPU-batched, oracle and SIMD
        // rounds taking turns rep by rep. The oracle comparison is pinned
        // to `Backend::Cpu` so the record stays comparable across machines
        // with and without SIMD.
        let mut cpu_ws = BatchWorkspace::with_backend(Backend::Cpu);
        let mut cpu_net = net.clone();
        let mut cpu_round = || {
            cpu_net.forward_batch(&xs, batch, &mut cpu_ws);
            cpu_net.backward_apply_batch(&mut cpu_ws, &grads);
            black_box(cpu_ws.output().len());
        };
        let mut naive_net = net.clone();
        let mut naive_round = || {
            let caches = naive_net.forward_batch_naive(&xs, batch);
            naive_net.backward_apply_batch_naive(&caches, &grads);
            black_box(caches.len());
        };
        let mut simd_ws = BatchWorkspace::with_backend(Backend::Simd);
        let mut simd_net = net;
        let mut simd_round = || {
            simd_net.forward_batch(&xs, batch, &mut simd_ws);
            simd_net.backward_apply_batch(&mut simd_ws, &grads);
            black_box(simd_ws.output().len());
        };
        let mut rounds: Vec<&mut dyn FnMut()> = vec![&mut cpu_round, &mut naive_round];
        if simd {
            rounds.push(&mut simd_round);
        }
        let medians = interleaved_median_ns(reps, &mut rounds);
        let (engine_ns, naive_ns, simd_ns) = (medians[0], medians[1], medians.get(2).copied());
        let speedup = naive_ns / engine_ns;
        gated_speedups.push(speedup);
        let simd_speedup = simd_ns.map(|ns| engine_ns / ns);
        if simd_gated {
            if let Some(s) = simd_speedup {
                gated_simd_speedups.push(s);
            }
        }
        println!(
            "ml         {:<14} cpu {:>9.0} ns   naive {:>10.0} ns   speedup {:>5.2}x   \
             simd {}",
            name,
            engine_ns,
            naive_ns,
            speedup,
            match (simd_ns, simd_speedup) {
                (Some(ns), Some(s)) => format!("{ns:>9.0} ns ({s:.2}x over cpu)"),
                _ => "unsupported".to_string(),
            }
        );
        let mut row = vec![
            ("name", JsonValue::Str(name.to_string())),
            (
                "layers",
                JsonValue::Arr(sizes.iter().map(|&s| JsonValue::Uint(s as u64)).collect()),
            ),
            ("batch", JsonValue::Uint(batch as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
            ("gated", JsonValue::Bool(true)),
            ("simd_gated", JsonValue::Bool(simd_gated)),
        ];
        if let (Some(ns), Some(s)) = (simd_ns, simd_speedup) {
            row.push(("simd_ns", JsonValue::Num(ns)));
            row.push(("simd_speedup", JsonValue::Num(s)));
            row.push(("simd_bit_identical", JsonValue::Bool(true)));
        }
        bench_rows.push(JsonValue::obj(row));
    }
    let min_speedup = gated_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean =
        (gated_speedups.iter().map(|s| s.ln()).sum::<f64>() / gated_speedups.len() as f64).exp();
    let simd_min = gated_simd_speedups
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let mut summary = vec![
        ("round_speedup_min", JsonValue::Num(min_speedup)),
        ("round_speedup_geomean", JsonValue::Num(geomean)),
        ("simd_supported", JsonValue::Bool(simd)),
    ];
    if !gated_simd_speedups.is_empty() {
        let simd_geomean = (gated_simd_speedups.iter().map(|s| s.ln()).sum::<f64>()
            / gated_simd_speedups.len() as f64)
            .exp();
        summary.push(("simd_over_cpu_min", JsonValue::Num(simd_min)));
        summary.push(("simd_over_cpu_geomean", JsonValue::Num(simd_geomean)));
    }
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-ml/2".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("batch", JsonValue::Uint(batch as u64)),
        ("benches", JsonValue::Arr(bench_rows)),
        ("summary", JsonValue::obj(summary)),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_ml.json");
    println!(
        "wrote {out_path} (min round speedup {min_speedup:.2}x, min simd-over-cpu {simd_min:.2}x)"
    );
    (min_speedup, simd_min)
}

/// A descent-dominated calibration problem: overlapping triples where every
/// clique carries its triple marginal, all three pairs and all three
/// singletons (≈7 targets per clique, the AIM/MST regime in which
/// `loss_and_grad`'s per-measurement phases dominate the iteration).
fn rich_problem(d: usize, card: usize) -> (Vec<usize>, Vec<NoisyMeasurement>) {
    let domain = vec![card; d];
    let meas = |attrs: Vec<usize>| {
        let cells: usize = attrs.iter().map(|&a| domain[a]).product();
        NoisyMeasurement {
            values: (0..cells)
                .map(|k| 80.0 + 23.0 * ((k + attrs[0]) as f64).sin())
                .collect(),
            sigma: 2.0,
            attrs,
        }
    };
    let mut ms = Vec::new();
    for a in (0..d - 2).step_by(2) {
        ms.push(meas(vec![a, a + 1, a + 2]));
        ms.push(meas(vec![a, a + 1]));
        ms.push(meas(vec![a, a + 2]));
        ms.push(meas(vec![a + 1, a + 2]));
    }
    for a in 0..d {
        ms.push(meas(vec![a]));
    }
    (domain, ms)
}

/// Intra-fit parallelism: sequential vs 8-thread mirror descent on
/// descent-dominated shapes (bit-identity asserted before any timing);
/// writes `BENCH_fit.json`. Returns the minimum speedup at 8 threads.
fn fit_section(quick: bool, out_path: &str) -> f64 {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mt = 8usize;
    let est_reps = if quick { 3 } else { 7 };
    // Cardinalities are chosen so each parallel region carries millisecond-
    // scale marginalization work — enough to amortize the per-region thread
    // spawns the eager rayon shim pays.
    let shapes = [("rich-d8-c14", 8usize, 14usize), ("rich-d6-c16", 6, 16)];
    let mut bench_rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, d, card) in shapes {
        let (domain, ms) = rich_problem(d, card);
        let opts = EstimationOptions {
            iterations: if quick { 25 } else { 80 },
            fit_threads: 1,
        };
        let mt_opts = EstimationOptions {
            fit_threads: mt,
            ..opts
        };
        // Bit-identity first, always — the speedup gate may be host-gated,
        // the reduction-order contract never is.
        let seq_model = estimate(&domain, &ms, opts).expect("fit");
        let mt_model = estimate(&domain, &ms, mt_opts).expect("fit");
        assert_eq!(
            seq_model.calibrated().beliefs,
            mt_model.calibrated().beliefs,
            "{name}: {mt}-thread descent changed the fitted beliefs"
        );
        let seq_ns = median_ns(est_reps, || {
            estimate(&domain, &ms, opts).expect("fit");
        });
        let mt_ns = median_ns(est_reps, || {
            estimate(&domain, &ms, mt_opts).expect("fit");
        });
        let speedup = seq_ns / mt_ns;
        speedups.push(speedup);
        println!(
            "fit        {name:<14} 1-thread {seq_ns:>10.0} ns   {mt}-thread {mt_ns:>10.0} ns   speedup {speedup:>5.2}x"
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("measurements", JsonValue::Uint(ms.len() as u64)),
            ("iterations", JsonValue::Uint(opts.iterations as u64)),
            ("seq_ns", JsonValue::Num(seq_ns)),
            ("mt_ns", JsonValue::Num(mt_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
        ]));
    }
    let fit_min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-fit/2".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("host_threads", JsonValue::Uint(host_threads as u64)),
        ("fit_threads", JsonValue::Uint(mt as u64)),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("fit_speedup_min", JsonValue::Num(fit_min)),
                ("speedup_gate_active", JsonValue::Bool(host_threads >= mt)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_fit.json");
    println!("wrote {out_path} (min fit speedup {fit_min:.2}x)");
    fit_min
}

/// The output flags, one per perf record, with their default paths.
const OUTPUTS: [(&str, &str); 6] = [
    ("--out", "BENCH_pgm.json"),
    ("--marginal-out", "BENCH_marginal.json"),
    ("--sampling-out", "BENCH_sampling.json"),
    ("--dataset-out", "BENCH_dataset.json"),
    ("--ml-out", "BENCH_ml.json"),
    ("--fit-out", "BENCH_fit.json"),
];

/// Parse `--quick` and the output flags into `(quick, paths)`, with the
/// paths in [`OUTPUTS`] order.
///
/// # Errors
/// A message naming the flag for an unknown flag or a missing value.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(bool, [String; 6]), String> {
    let mut quick = false;
    let mut paths = OUTPUTS.map(|(_, default)| default.to_string());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            quick = true;
            continue;
        }
        let slot = OUTPUTS
            .iter()
            .position(|(flag, _)| *flag == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        paths[slot] = synrd_bench::flag_value(&arg, it.next().as_ref())?;
    }
    Ok((quick, paths))
}

fn main() {
    let (quick, [out_path, marginal_out, sampling_out, dataset_out, ml_out, fit_out]) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
    let reps = if quick { 7 } else { 31 };

    // --- Kernel grid: stride vs naive calibration -------------------------
    let problems = vec![chain(8, 4), chain(6, 10), triples(7, 4), triples(5, 8)];
    let mut kernel_rows = Vec::new();
    let mut speedups = Vec::new();
    for p in &problems {
        let mut ws = CalibrationWorkspace::new(&p.tree).expect("workspace");
        let mut out = CalibratedTree::default();
        // Warm the output beliefs so the stride timing reflects steady
        // state (the mirror-descent loop's regime).
        calibrate_into(&p.pots, &mut ws, &mut out).expect("calibrate");
        let stride_ns = median_ns(reps, || {
            calibrate_into(&p.pots, &mut ws, &mut out).expect("calibrate");
        });
        let naive_ns = median_ns(reps, || {
            calibrate_naive(&p.tree, &p.pots).expect("calibrate");
        });
        let speedup = naive_ns / stride_ns;
        speedups.push(speedup);
        println!(
            "calibrate {:<14} stride {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
            p.name, stride_ns, naive_ns, speedup
        );
        kernel_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(p.name.clone())),
            ("cliques", JsonValue::Uint(p.tree.cliques().len() as u64)),
            (
                "max_clique_cells",
                JsonValue::Uint(p.tree.max_clique_cells() as u64),
            ),
            ("stride_ns", JsonValue::Num(stride_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
        ]));
    }

    // --- End-to-end mirror descent ----------------------------------------
    let domain = vec![4usize; 8];
    let measurements: Vec<NoisyMeasurement> = (0..7)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..16).map(|k| 60.0 + 17.0 * (k as f64).sin()).collect(),
            sigma: 2.0,
        })
        .collect();
    let opts = EstimationOptions {
        iterations: if quick { 30 } else { 120 },
        fit_threads: 1,
    };
    let est_reps = if quick { 3 } else { 9 };
    let stride_fit_ns = median_ns(est_reps, || {
        estimate(&domain, &measurements, opts).expect("fit");
    });
    let naive_fit_ns = median_ns(est_reps, || {
        estimate_naive(&domain, &measurements, opts).expect("fit");
    });
    let fit_speedup = naive_fit_ns / stride_fit_ns;
    println!(
        "estimate   {:<14} stride {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
        format!("chain-d8 x{}", opts.iterations),
        stride_fit_ns,
        naive_fit_ns,
        fit_speedup
    );

    // Allocation trajectory: factor buffers for a fit, and the marginal
    // cost of additional iterations (must be zero).
    let allocs_for = |iters: usize| -> u64 {
        let o = EstimationOptions {
            iterations: iters,
            ..opts
        };
        let before = factor_buffer_allocs();
        let model = estimate(&domain, &measurements, o).expect("fit");
        TreeSampler::new(&model).expect("sampler");
        factor_buffer_allocs() - before
    };
    let allocs_30 = allocs_for(30);
    let allocs_120 = allocs_for(120);
    let allocs_per_iter = (allocs_120 as i64 - allocs_30 as i64) as f64 / 90.0;
    println!(
        "allocs     fit+sampler: {allocs_120} buffers; per extra iteration: {allocs_per_iter}"
    );

    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-pgm/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("calibrate_kernels", JsonValue::Arr(kernel_rows)),
        (
            "estimate",
            JsonValue::obj(vec![
                ("name", JsonValue::Str("chain-d8-c4".to_string())),
                ("iterations", JsonValue::Uint(opts.iterations as u64)),
                ("stride_ns", JsonValue::Num(stride_fit_ns)),
                ("naive_ns", JsonValue::Num(naive_fit_ns)),
                ("speedup", JsonValue::Num(fit_speedup)),
                (
                    "factor_buffer_allocs_fit_and_sampler",
                    JsonValue::Uint(allocs_120),
                ),
                (
                    "allocs_per_extra_iteration",
                    JsonValue::Num(allocs_per_iter),
                ),
            ]),
        ),
        (
            "summary",
            JsonValue::obj(vec![
                ("calibrate_speedup_min", JsonValue::Num(min_speedup)),
                ("calibrate_speedup_geomean", JsonValue::Num(geomean)),
                ("estimate_speedup", JsonValue::Num(fit_speedup)),
            ]),
        ),
    ]);
    let text = doc.to_text();
    std::fs::write(&out_path, format!("{text}\n")).expect("write BENCH_pgm.json");
    println!("wrote {out_path} (min calibrate speedup {min_speedup:.2}x, geomean {geomean:.2}x)");

    // --- Marginal engine: the synthesizer selection paths ------------------
    let selection_min = marginal_section(quick, &marginal_out);

    // --- Sampling engine: the row-generation path --------------------------
    let sampling_min = sampling_section(quick, &sampling_out);

    // --- Dataset storage: decode throughput and footprint ------------------
    let compression_min = dataset_section(quick, &dataset_out);

    // --- ML kernels: batched MLP round vs the per-example oracle -----------
    let (ml_min, ml_simd_min) = ml_section(quick, &ml_out);

    // --- Intra-fit parallelism: descent scaling ----------------------------
    let fit_min = fit_section(quick, &fit_out);

    if min_speedup < 1.0 {
        eprintln!("warning: stride kernels slower than naive on some problem");
        std::process::exit(1);
    }
    // The record's target is 2x. selection_min is always set by the slowest
    // one-shot sweep (mst-pairs, ~2.3x on the checked-in record) — the
    // cached round-loop bench sits near 10x and never binds — so the hard
    // exit gate is softened in --quick mode, where short reps on noisy
    // shared CI runners can shave that sweep's ratio without any code
    // regression.
    let gate = if quick { 1.4 } else { 2.0 };
    if selection_min < gate {
        eprintln!(
            "warning: marginal engine under the {gate:.1}x selection-path gate \
             ({selection_min:.2}x)"
        );
        std::process::exit(1);
    }
    // Same 2x target for the sampling engine at 100k rows, softened in
    // --quick mode for the same CI-noise reason.
    let sampling_gate = if quick { 1.4 } else { 2.0 };
    if sampling_min < sampling_gate {
        eprintln!(
            "warning: sampling engine under the {sampling_gate:.1}x sample_columns gate \
             ({sampling_min:.2}x)"
        );
        std::process::exit(1);
    }
    // Storage compression is deterministic (no timing noise): every registry
    // dataset must pack at least 4x denser than 4-byte codes.
    if compression_min < 4.0 {
        eprintln!("warning: registry compression under the 4x gate ({compression_min:.2}x)");
        std::process::exit(1);
    }
    // Batched ML kernels: the PATECTGAN generator round through the
    // `BatchWorkspace` GEMM passes must beat the per-example oracle by 2x
    // (1.4x in --quick mode for the usual CI-noise reason).
    let ml_gate = if quick { 1.4 } else { 2.0 };
    if ml_min < ml_gate {
        eprintln!("warning: batched generator round under the {ml_gate:.1}x gate ({ml_min:.2}x)");
        std::process::exit(1);
    }
    // The SIMD backend must pay for its dispatch: ≥1.5x over the CPU
    // backend on the generator training rounds (1.2x in --quick mode for
    // the usual CI-noise reason). `+inf` (no gate) only when the CPU has no
    // SIMD path.
    let ml_simd_gate = if quick { 1.2 } else { 1.5 };
    if ml_simd_min.is_finite() && ml_simd_min < ml_simd_gate {
        eprintln!(
            "warning: simd backend under the {ml_simd_gate:.1}x over-cpu gate \
             ({ml_simd_min:.2}x)"
        );
        std::process::exit(1);
    }
    // Intra-fit descent scaling: ≥2.5x at 8 threads on the descent-dominated
    // shapes (1.4x in --quick mode). The gate binds only on hosts that
    // actually have 8 cores — bit-identity is asserted unconditionally
    // inside the section, so thread-starved runners still verify the
    // reduction-order contract and record the (ungated) ratio.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fit_gate = if quick { 1.4 } else { 2.5 };
    if host_threads >= 8 && fit_min < fit_gate {
        eprintln!(
            "warning: intra-fit descent scaling under the {fit_gate:.1}x gate ({fit_min:.2}x)"
        );
        std::process::exit(1);
    }
}
