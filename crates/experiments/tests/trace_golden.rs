//! Pinned bytes of `repro run` at P = 1.
//!
//! With one simulated processor a run is a pure function of the platform,
//! the algorithm and the bodies, so everything `experiments::run` renders —
//! the tables, the Chrome trace and the text summaries — is too. The length
//! and an FNV-1a digest of each are pinned here: a change to how the
//! accounting is recorded or exported must leave every byte as it is. ORIG
//! exercises the lock histogram's table cells and the summary's lock line;
//! both end with the per-region communication table.

use bh_core::prelude::*;
use bh_experiments::experiments;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `(length, digest)` of the rendered tables, the trace and the summary.
fn fingerprint(alg: Algorithm) -> [(usize, u64); 3] {
    let r = experiments::run("origin2000", alg, 512, 1, None).expect("run");
    let tables: String = r.tables.iter().map(|t| format!("{t}\n")).collect();
    [tables, r.trace_json, r.trace_summary].map(|s| (s.len(), fnv1a(s.as_bytes())))
}

#[test]
fn p1_run_output_matches_the_pinned_digests() {
    for (alg, want) in [
        (
            Algorithm::Orig,
            [
                (2165, 6989936014084918650),
                (3550, 4974674514056861713),
                (1187, 16318157776401019660),
            ],
        ),
        (
            Algorithm::Morton,
            [
                (2009, 4091538025075937786),
                (3526, 9807597611074856074),
                (1028, 1161427522199320047),
            ],
        ),
    ] {
        let got = fingerprint(alg);
        assert_eq!(got, want, "{alg}: tables, trace, summary");
    }
}
