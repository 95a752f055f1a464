//! A session's verdict line equals the `duop check --criterion du
//! --format json` line of the retained history after every 32-event
//! chunk, and across a checkpoint/resume at every chunk boundary.
//!
//! `Session::verdict` serves the monitor's batch verdict, which skips
//! the prefilter stages the monitor's certified witness settles, and
//! `Session::resume` re-checks the retained history only when the
//! checkpointed witness does not validate. Neither may change a byte.
//! Shapes: the `stream-serve` benchmark's (128-transaction simulated
//! traces streamed in 32-event POSTs), experiment E21's two, and
//! six-transaction adversarial histories, whose violations exercise the
//! resume-time re-check.

use duop_core::{Criterion, DuOpacity, SearchConfig};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::{Event, History};
use duop_serve::{verdict_line, Session};

const CHUNK_EVENTS: usize = 32;

/// The `duop check --criterion du --format json` line of `h`.
fn batch_line(h: &History) -> String {
    verdict_line(
        &DuOpacity::with_config(SearchConfig::default()).check(h),
        true,
    )
}

fn corpus() -> Vec<(String, History)> {
    let mut out = Vec::new();
    for seed in 0..2 {
        let cfg = HistoryGenConfig::medium_simulated().with_txns(128);
        out.push((
            format!("stream-serve seed {seed}"),
            HistoryGen::new(cfg, seed).generate(),
        ));
    }
    for seed in 0..10 {
        let adversarial = HistoryGenConfig {
            txns: 12,
            objs: 3,
            mode: GenMode::Adversarial,
            ..HistoryGenConfig::medium_simulated()
        };
        for (name, cfg) in [
            (
                "E21 simulated",
                HistoryGenConfig::medium_simulated().with_txns(16),
            ),
            ("E21 adversarial", adversarial),
            (
                "adversarial",
                HistoryGenConfig::small_adversarial().with_txns(6),
            ),
        ] {
            out.push((
                format!("{name} seed {seed}"),
                HistoryGen::new(cfg, seed).generate(),
            ));
        }
    }
    out
}

#[test]
fn verdict_after_every_chunk_matches_batch() {
    let mut violated = 0;
    for (label, h) in corpus() {
        let mut s = Session::new(1, None);
        let mut sent = 0;
        for chunk in h.events().chunks(CHUNK_EVENTS) {
            s.ingest(chunk)
                .expect("generated histories are well-formed");
            sent += chunk.len();
            assert_eq!(
                verdict_line(&s.verdict(), true),
                batch_line(&h.prefix(sent)),
                "{label}: after {sent} events"
            );
        }
        violated += usize::from(s.violated());
    }
    assert!(violated > 0, "no stream ended violated");
}

#[test]
fn verdict_across_resume_at_every_cut_matches_batch() {
    let mut resumed_violated = 0;
    for (label, h) in corpus() {
        let chunks: Vec<&[Event]> = h.events().chunks(CHUNK_EVENTS).collect();
        let whole = batch_line(&h);
        for cut in 0..=chunks.len() {
            let mut s = Session::new(9, None);
            for chunk in &chunks[..cut] {
                s.ingest(chunk).expect("prefix ingest");
            }
            let mut resumed = Session::resume(s.snapshot()).expect("checkpoint resumes");
            let sent = chunks[..cut].iter().map(|c| c.len()).sum();
            assert_eq!(
                verdict_line(&resumed.verdict(), true),
                batch_line(&h.prefix(sent)),
                "{label}: resumed at {sent} events"
            );
            resumed_violated += usize::from(resumed.violated());
            for chunk in &chunks[cut..] {
                resumed.ingest(chunk).expect("suffix ingest");
            }
            assert_eq!(
                verdict_line(&resumed.verdict(), true),
                whole,
                "{label}: resumed at {sent} events, then streamed the rest"
            );
        }
    }
    assert!(resumed_violated > 0, "no resume re-derived a violation");
}
