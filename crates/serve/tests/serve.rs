//! End-to-end tests for serve mode: the network-free protocol layer
//! (`handle_request`) against a seeded fit cache, and a real TCP round trip
//! on an ephemeral port.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use synrd::benchmark::{BenchmarkConfig, FitStore};
use synrd_data::{Attribute, Dataset, Domain};
use synrd_serve::{
    handle_request, serve, FitService, MAX_LINE, MAX_RESPONSE_CELLS, MAX_SAMPLE_ROWS,
};
use synrd_store::{hex16, parse, JsonValue};
use synrd_synth::SynthKind;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synrd-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_dataset() -> Dataset {
    let domain = Domain::new(vec![
        Attribute::binary("x"),
        Attribute::binary("y"),
        Attribute::ordinal("z", 3),
    ]);
    let mut data = Dataset::with_capacity(domain, 240);
    for i in 0..240u64 {
        let h = i.wrapping_mul(2654435761).wrapping_add(17);
        data.push_row(&[(h % 2) as u32, ((h >> 3) % 2) as u32, ((h >> 5) % 3) as u32])
            .unwrap();
    }
    data
}

/// A service whose cache holds one MST fit of [`small_dataset`] at ε=1,
/// seed index 0. Returns the service and the dataset's content digest.
fn seeded_service(tag: &str) -> (FitService, u64) {
    seeded_service_with(tag, &small_dataset())
}

/// [`seeded_service`] over the fit of another dataset.
fn seeded_service_with(tag: &str, data: &Dataset) -> (FitService, u64) {
    let service = FitService::open(tmp_dir(tag), BenchmarkConfig::quick()).unwrap();
    let mut synth = SynthKind::Mst.build();
    synth
        .fit(data, SynthKind::Mst.native_privacy(1.0, data.n_rows()), 0)
        .unwrap();
    let digest = data.content_digest();
    service.fits().save(
        digest,
        SynthKind::Mst,
        1.0,
        0,
        &synth.fitted_state().unwrap(),
    );
    (service, digest)
}

fn sample_request(digest: u64, n: u64, seed: u64) -> JsonValue {
    JsonValue::obj(vec![
        ("op", JsonValue::Str("sample".to_string())),
        ("dataset", JsonValue::Str(hex16(digest))),
        ("synth", JsonValue::Str("MST".to_string())),
        ("epsilon", JsonValue::Num(1.0)),
        ("seed_index", JsonValue::Uint(0)),
        ("n", JsonValue::Uint(n)),
        ("seed", JsonValue::Uint(seed)),
    ])
}

/// A `workload` request over the fit [`sample_request`] addresses, with
/// `queries` as attribute-id lists.
fn workload_request(digest: u64, n: u64, seed: u64, queries: Vec<JsonValue>) -> JsonValue {
    let mut request = sample_request(digest, n, seed);
    if let JsonValue::Obj(fields) = &mut request {
        fields[0].1 = JsonValue::Str("workload".to_string());
        fields.push(("queries".to_string(), JsonValue::Arr(queries)));
    }
    request
}

fn assert_ok(response: &JsonValue) {
    assert_eq!(
        response.get("ok"),
        Some(&JsonValue::Bool(true)),
        "expected ok response, got {}",
        response.to_text()
    );
}

#[test]
fn sampling_from_a_cached_fit_is_deterministic() {
    let (service, digest) = seeded_service("sample");

    let a = handle_request(&service, &sample_request(digest, 500, 7));
    assert_ok(&a);
    assert_eq!(a.get("n"), Some(&JsonValue::Uint(500)));
    // Same request, same bytes: the restored sampler is deterministic in
    // the draw seed, so serve mode reproduces itself.
    let b = handle_request(&service, &sample_request(digest, 500, 7));
    assert_eq!(a.get("digest"), b.get("digest"));

    // The fit was loaded from disk exactly once; the second request hit
    // the in-memory memo.
    assert_eq!(service.fits().stats().hits, 1);
    assert_eq!(service.served().0, 2);

    // Opt-in row payload: one column per attribute, n codes each, all
    // within the attribute's cardinality.
    let mut with_rows = sample_request(digest, 64, 1);
    if let JsonValue::Obj(fields) = &mut with_rows {
        fields.push(("rows".to_string(), JsonValue::Bool(true)));
    }
    let r = handle_request(&service, &with_rows);
    assert_ok(&r);
    let columns = r.get("columns").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(columns.len(), 3);
    for (attr, column) in columns.iter().enumerate() {
        let codes = column.as_arr().unwrap();
        assert_eq!(codes.len(), 64);
        let card = if attr == 2 { 3 } else { 2 };
        assert!(codes.iter().all(|c| c.as_u64().unwrap() < card));
    }
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn workload_queries_count_the_sampled_rows() {
    let (service, digest) = seeded_service("workload");
    let request = workload_request(
        digest,
        400,
        3,
        vec![
            JsonValue::Arr(vec![JsonValue::Uint(0)]),
            JsonValue::Arr(vec![JsonValue::Uint(0), JsonValue::Uint(2)]),
        ],
    );
    let response = handle_request(&service, &request);
    assert_ok(&response);
    let results = response.get("results").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    for (result, cells) in results.iter().zip([2usize, 6]) {
        let counts = result.get("counts").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(counts.len(), cells);
        let total: f64 = counts.iter().map(|c| c.as_f64().unwrap()).sum();
        assert_eq!(total, 400.0, "marginal counts must sum to the sample size");
    }
    assert_eq!(service.served().1, 2);
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn missing_fits_and_malformed_requests_are_errors_not_refits() {
    let (service, digest) = seeded_service("errors");

    let refusal = |req: &JsonValue| {
        let response = handle_request(&service, req);
        assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
        response
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };

    // Never-fitted coordinates are refused, not refitted on demand.
    assert!(refusal(&sample_request(digest ^ 1, 10, 0)).contains("no cached fit"));
    let mut wrong_eps = sample_request(digest, 10, 0);
    if let JsonValue::Obj(fields) = &mut wrong_eps {
        for (k, v) in fields.iter_mut() {
            if k == "epsilon" {
                *v = JsonValue::Num(2.0);
            }
        }
    }
    assert!(refusal(&wrong_eps).contains("no cached fit"));

    assert!(refusal(&parse(r#"{"op":"explode"}"#).unwrap()).contains("unknown op"));
    assert!(refusal(&parse(r#"{"n":3}"#).unwrap()).contains("op"));
    assert!(refusal(
        &parse(r#"{"op":"sample","paper":"nope","synth":"MST","epsilon":1.0,"n":3}"#).unwrap()
    )
    .contains("unknown paper"));
    let bad_synth = format!(
        r#"{{"op":"sample","dataset":"{}","synth":"NOPE","epsilon":1.0,"n":3}}"#,
        hex16(digest)
    );
    assert!(refusal(&parse(&bad_synth).unwrap()).contains("unknown synthesizer"));

    // Nothing above fitted anything: the service holds only the seeded
    // restoration path and all failures were refusals.
    assert_eq!(service.served(), (0, 0));
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn tcp_round_trip_ping_sample_shutdown() {
    let (service, digest) = seeded_service("tcp");
    let root = service.fits().root().to_path_buf();
    let handle = serve(Arc::new(service), "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr();

    let exchange = |line: String| -> JsonValue {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        parse(response.trim()).unwrap()
    };

    assert_ok(&exchange(r#"{"op":"ping"}"#.to_string()));
    // Unparseable lines get a protocol error, not a dropped connection.
    let garbled = exchange("{not json".to_string());
    assert_eq!(garbled.get("ok"), Some(&JsonValue::Bool(false)));
    let sampled = exchange(sample_request(digest, 200, 9).to_text());
    assert_ok(&sampled);
    assert_eq!(sampled.get("n"), Some(&JsonValue::Uint(200)));
    let stats = exchange(r#"{"op":"stats"}"#.to_string());
    assert_ok(&stats);
    assert_eq!(stats.get("samples_served"), Some(&JsonValue::Uint(1)));
    // The stats response reports the active ML backend by name.
    let backend = synrd_synth::ml_backend::global_name();
    assert_eq!(
        stats.get("ml_backend"),
        Some(&JsonValue::Str(backend.to_string()))
    );

    assert_ok(&exchange(r#"{"op":"shutdown"}"#.to_string()));
    handle.join();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn oversized_samples_are_refused_and_the_service_lives_on() {
    let (service, digest) = seeded_service("huge-n");
    // 10^12 rows would need a 16 TB allocation, which aborts the process.
    let refused = handle_request(&service, &sample_request(digest, 1_000_000_000_000, 7));
    assert_eq!(refused.get("ok"), Some(&JsonValue::Bool(false)));
    let error = refused.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains(&MAX_SAMPLE_ROWS.to_string()), "{error}");
    assert_eq!(service.served(), (0, 0));

    let next = handle_request(&service, &sample_request(digest, 500, 7));
    assert_ok(&next);
    assert_eq!(next.get("n"), Some(&JsonValue::Uint(500)));
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn oversized_workload_responses_are_refused_and_the_service_lives_on() {
    // Three 64-code attributes: one pair marginal has 4,096 cells, so this
    // many copies of one pair query total one pair more than the cap. Each
    // query alone is legal.
    let domain = Domain::new(
        (0..3)
            .map(|a| Attribute::ordinal(format!("a{a}"), 64))
            .collect(),
    );
    let mut data = Dataset::with_capacity(domain, 240);
    for i in 0..240u32 {
        data.push_row(&[i % 64, (i * 7) % 64, (i * 13) % 64])
            .unwrap();
    }
    let (service, digest) = seeded_service_with("huge-workload", &data);
    let pair = JsonValue::Arr(vec![JsonValue::Uint(0), JsonValue::Uint(1)]);
    let copies = MAX_RESPONSE_CELLS / 4096 + 1;
    let refused = handle_request(
        &service,
        &workload_request(digest, 100, 3, vec![pair.clone(); copies]),
    );
    assert_eq!(refused.get("ok"), Some(&JsonValue::Bool(false)));
    let error = refused.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains(&MAX_RESPONSE_CELLS.to_string()), "{error}");
    assert_eq!(service.served(), (0, 0));

    let next = handle_request(&service, &workload_request(digest, 100, 3, vec![pair; 2]));
    assert_ok(&next);
    assert_eq!(service.served(), (0, 2));
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn oversized_row_payloads_are_refused_and_the_service_lives_on() {
    // 64 binary attributes: a legal `n` of one row more than the cap over
    // 64 makes a rows payload 64 values over it.
    let domain = Domain::new(
        (0..64)
            .map(|a| Attribute::binary(format!("b{a}")))
            .collect(),
    );
    let mut data = Dataset::with_capacity(domain, 240);
    for i in 0..240u64 {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let row: Vec<u32> = (0..64).map(|a| ((h >> a) & 1) as u32).collect();
        data.push_row(&row).unwrap();
    }
    let (service, digest) = seeded_service_with("huge-rows", &data);
    let with_rows = |n: u64| {
        let mut request = sample_request(digest, n, 7);
        if let JsonValue::Obj(fields) = &mut request {
            fields.push(("rows".to_string(), JsonValue::Bool(true)));
        }
        request
    };
    let n = (MAX_RESPONSE_CELLS / 64 + 1) as u64;
    assert!(n <= MAX_SAMPLE_ROWS as u64);
    let refused = handle_request(&service, &with_rows(n));
    assert_eq!(refused.get("ok"), Some(&JsonValue::Bool(false)));
    let error = refused.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains(&MAX_RESPONSE_CELLS.to_string()), "{error}");
    assert_eq!(service.served(), (0, 0));

    // The same draw without its rows payload is an ordinary request, and
    // so is a rows payload under the cap.
    let next = handle_request(&service, &sample_request(digest, n, 7));
    assert_ok(&next);
    assert_eq!(next.get("n"), Some(&JsonValue::Uint(n)));
    let small = handle_request(&service, &with_rows(16));
    assert_ok(&small);
    let columns = small.get("columns").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(columns.len(), 64);
    assert_eq!(service.served(), (2, 0));
    let _ = std::fs::remove_dir_all(service.fits().root());
}

#[test]
fn over_long_request_lines_are_refused_and_the_server_lives_on() {
    let (service, _) = seeded_service("long-line");
    let root = service.fits().root().to_path_buf();
    let handle = serve(Arc::new(service), "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr();

    // Exactly one byte over the cap and no newline: the server reads every
    // byte sent before it closes, so the close cannot turn into a reset
    // that drops the error line.
    let mut stream = TcpStream::connect(addr).unwrap();
    // A server that waits for the newline fails the read instead of
    // hanging the test.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
    let mut reader = BufReader::new(&stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let response = parse(response.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    let error = response.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("longer than"), "{error}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");

    let exchange = |line: &str| -> JsonValue {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        parse(response.trim()).unwrap()
    };
    assert_ok(&exchange(r#"{"op":"ping"}"#));
    assert_ok(&exchange(r#"{"op":"shutdown"}"#));
    handle.join();
    let _ = std::fs::remove_dir_all(root);
}
