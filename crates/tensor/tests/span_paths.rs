//! A pool chunk records its spans under the span path of the thread that
//! submitted its batch, whichever thread runs it. So a run report reads the
//! same for any pool size. This binary turns collection on, so it runs
//! apart from the other test binaries.

use moss_tensor::ThreadPool;

const OUTER: usize = 12;
const INNER: usize = 7;

/// `(span path, calls)` for every span in the report, sorted by path.
fn span_calls(json: &str) -> Vec<(String, u64)> {
    json.lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("{\"name\": \"")?;
            let (name, rest) = rest.split_once('"')?;
            let calls = rest.strip_prefix(", \"calls\": ")?;
            let calls = calls[..calls.find(',')?].parse().ok()?;
            Some((name.to_string(), calls))
        })
        .collect()
}

fn report_for(threads: usize) -> Vec<(String, u64)> {
    let pool = ThreadPool::new(threads);
    moss_obs::reset();
    {
        let _stage = moss_obs::span("stage");
        pool.run_indexed(OUTER, &|_| {
            let _chunk = moss_obs::span("chunk");
            pool.run_indexed(INNER, &|_| {
                let _leaf = moss_obs::span("leaf");
                std::hint::black_box((0..2_000u64).sum::<u64>());
            });
        });
    }
    span_calls(&moss_obs::report_json())
}

#[test]
fn nested_batches_report_the_same_paths_at_any_pool_size() {
    moss_obs::set_enabled(true);
    let expected = vec![
        ("stage".to_string(), 1),
        ("stage/chunk".to_string(), OUTER as u64),
        ("stage/chunk/leaf".to_string(), (OUTER * INNER) as u64),
    ];
    for threads in [1, 2, 4] {
        assert_eq!(report_for(threads), expected, "{threads} threads");
    }
}
