//! The committed `BENCH_*.json` baselines stay readable by the one JSON
//! path: each parses, gates clean against itself, and survives a
//! render → parse round trip unchanged.

use presto_bench::diff::compare_bench;
use presto_bench::json::parse;

#[test]
fn committed_baselines_parse_diff_clean_and_rerender() {
    for scenario in ["fleet", "partition", "slice"] {
        let path = format!(
            "{}/baselines/BENCH_{scenario}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("baseline is committed");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            doc.get("scenario").and_then(|s| s.as_str()),
            Some(scenario),
            "{path}"
        );
        let report = compare_bench(&doc, &doc);
        assert!(report.is_clean(), "{path}: {:?}", report.regressions);
        assert!(
            report.compared > 100,
            "{path}: gate compared almost nothing"
        );
        assert_eq!(parse(&doc.render()).as_ref(), Ok(&doc), "{path}");
    }
}
