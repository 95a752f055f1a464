//! The worker side of the sharded pipeline: a stdin/stdout frame loop.
//!
//! A worker is the same binary as the coordinator, re-executed in a
//! hidden mode (`duop shard-worker`). It speaks the [`crate::protocol`]
//! over its standard streams: handshake, then task frames in, verdict
//! frames out, until a shutdown frame or end-of-stream.
//!
//! Workers are deliberately dumb: one task at a time, sequential search,
//! the pipeline the task frame carries (for component tasks the
//! coordinator owns the prefilters and the ladder, so the frame has them
//! off). All scheduling intelligence lives in the coordinator.

use crate::protocol::{
    decode_hello, decode_task, encode_hello, encode_verdict_msg, write_frame, FrameReader,
    ProtocolError, TaskMsg, VerdictMsg, FRAME_HEARTBEAT, FRAME_HELLO, FRAME_SHUTDOWN, FRAME_TASK,
    FRAME_VERDICT,
};
use duop_core::{check_criterion_with_stats, Criterion, Opacity, PlanCriterion};
use duop_history::binary;
use std::io::{Read, Write};
use std::time::Duration;

/// Environment variable for fault injection in tests: when set to a task
/// id, the worker exits (code 83) instead of answering the *first*
/// dispatch of that task (`attempt == 0`), simulating a crash
/// mid-component. Retries (attempt ≥ 1) are answered normally, so the
/// coordinator's re-queue path is exercised end to end.
pub const KILL_TASK_ENV: &str = "DUOP_SHARD_KILL_TASK";

/// Environment variable for fault injection in tests: when set (to any
/// value), the worker exits (code 83) shortly after sending its
/// handshake, without ever reading a frame — the first task dispatched
/// to it dies unread in the pipe. Unlike [`KILL_TASK_ENV`], the kill is
/// unconditional, so respawned replacements die the same way and the
/// retry budget is what decides the run.
pub const KILL_AFTER_HELLO_ENV: &str = "DUOP_SHARD_KILL_AFTER_HELLO";

/// Exit code of an injected worker death (distinct from real failures).
pub const KILL_EXIT_CODE: i32 = 83;

fn decide(task: TaskMsg) -> Result<VerdictMsg, ProtocolError> {
    let history = binary::decode(&task.history).map_err(|e| ProtocolError::Malformed {
        context: "task history",
        detail: e.to_string(),
    })?;
    let (verdict, explored) = if task.criterion == "opacity" {
        // Opacity is not prefix-decomposable by connected component (every
        // prefix must be final-state opaque), so it ships whole histories
        // and runs the dedicated prefix checker.
        (Opacity::with_config(task.search).check(&history), 0)
    } else if let Some(criterion) = PlanCriterion::parse(&task.criterion) {
        check_criterion_with_stats(&history, criterion, &task.search)
    } else {
        return Err(ProtocolError::Malformed {
            context: "task criterion",
            detail: format!("unknown token {:?}", task.criterion),
        });
    };
    Ok(VerdictMsg {
        task_id: task.task_id,
        explored,
        verdict,
    })
}

/// Runs the worker loop over arbitrary streams (testable without
/// spawning a process). Returns `Ok(())` on orderly shutdown (shutdown
/// frame or clean end-of-stream) and a [`ProtocolError`] on malformed
/// input or stream failure.
pub fn run_worker_io(input: impl Read, mut output: impl Write) -> Result<(), ProtocolError> {
    let mut reader = FrameReader::new(input);
    write_frame(&mut output, FRAME_HELLO, &encode_hello())?;
    output.flush()?;
    if std::env::var_os(KILL_AFTER_HELLO_ENV).is_some() {
        // Injected crash between handshake and first task (see
        // KILL_AFTER_HELLO_ENV). Linger long enough for the handshake
        // and the first dispatch to land, then die without answering.
        std::thread::sleep(Duration::from_millis(100));
        std::process::exit(KILL_EXIT_CODE);
    }
    let kill_task: Option<u64> = std::env::var(KILL_TASK_ENV)
        .ok()
        .and_then(|v| v.parse().ok());

    let mut shook_hands = false;
    loop {
        let Some((ty, payload)) = reader.read_frame()? else {
            // Coordinator closed the pipe: treat like shutdown.
            return Ok(());
        };
        if ty == FRAME_HEARTBEAT {
            // Liveness ping from the coordinator (TCP transport): not an
            // answerable frame, and legal at any point in the stream.
            continue;
        }
        if !shook_hands {
            if ty != FRAME_HELLO {
                return Err(ProtocolError::Malformed {
                    context: "handshake",
                    detail: format!("expected hello frame, got type {ty:#04x}"),
                });
            }
            decode_hello(payload)?;
            shook_hands = true;
            continue;
        }
        match ty {
            FRAME_TASK => {
                let task = decode_task(payload)?;
                if kill_task == Some(task.task_id) && task.attempt == 0 {
                    // Injected crash: die without answering (see
                    // KILL_TASK_ENV). Exiting here, not panicking, keeps
                    // stderr clean for the coordinator's diagnostics.
                    std::process::exit(KILL_EXIT_CODE);
                }
                let msg = decide(task)?;
                let encoded = encode_verdict_msg(&msg)?;
                write_frame(&mut output, FRAME_VERDICT, &encoded)?;
                output.flush()?;
            }
            FRAME_SHUTDOWN => return Ok(()),
            other => {
                return Err(ProtocolError::Malformed {
                    context: "frame type",
                    detail: format!("unexpected type {other:#04x}"),
                })
            }
        }
    }
}

/// Process entry point for the hidden worker mode: runs the loop over
/// stdin/stdout and converts the outcome to an exit code (0 = orderly,
/// 2 = malformed input or broken stream — never a panic).
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match run_worker_io(stdin, stdout) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("duop shard-worker: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_verdict_msg, encode_task};
    use duop_core::{SearchConfig, Verdict};
    use duop_gen::{HistoryGen, HistoryGenConfig};

    type Frames = Vec<(u8, Vec<u8>)>;

    /// The pipeline of a component task: prefilters and ladder off.
    fn component_search() -> SearchConfig {
        SearchConfig {
            prelint: false,
            ladder: false,
            saturate: false,
            ..SearchConfig::default()
        }
    }

    fn run(frames: &[(u8, Vec<u8>)]) -> (Result<(), ProtocolError>, Frames) {
        let mut input = Vec::new();
        write_frame(&mut input, FRAME_HELLO, &encode_hello()).unwrap();
        for (ty, payload) in frames {
            write_frame(&mut input, *ty, payload).unwrap();
        }
        let mut output = Vec::new();
        let result = run_worker_io(&input[..], &mut output);
        let mut reader = FrameReader::new(&output[..]);
        let mut replies = Vec::new();
        while let Ok(Some((ty, payload))) = reader.read_frame() {
            replies.push((ty, payload.to_vec()));
        }
        (result, replies)
    }

    #[test]
    fn answers_task_then_shuts_down() {
        let h = HistoryGen::new(
            HistoryGenConfig::small_simulated()
                .with_txns(8)
                .with_objs(3),
            5,
        )
        .generate();
        let task = TaskMsg {
            task_id: 11,
            attempt: 0,
            criterion: "du".to_owned(),
            search: component_search(),
            history: binary::encode(&h),
        };
        let (result, replies) = run(&[
            (FRAME_TASK, encode_task(&task)),
            (FRAME_SHUTDOWN, Vec::new()),
        ]);
        result.unwrap();
        assert_eq!(replies.len(), 2, "hello + one verdict");
        assert_eq!(replies[0].0, FRAME_HELLO);
        assert_eq!(replies[1].0, FRAME_VERDICT);
        let msg = decode_verdict_msg(&replies[1].1).unwrap();
        assert_eq!(msg.task_id, 11);
        assert!(matches!(
            msg.verdict,
            Verdict::Satisfied(_) | Verdict::Violated(_)
        ));
    }

    #[test]
    fn eof_without_shutdown_is_orderly() {
        let (result, replies) = run(&[]);
        result.unwrap();
        assert_eq!(replies.len(), 1, "hello only");
    }

    #[test]
    fn unknown_criterion_is_a_structured_error() {
        let task = TaskMsg {
            task_id: 0,
            attempt: 0,
            criterion: "bogus".to_owned(),
            search: component_search(),
            history: binary::encode(&duop_history::History::empty()),
        };
        let (result, _) = run(&[(FRAME_TASK, encode_task(&task))]);
        assert!(matches!(
            result,
            Err(ProtocolError::Malformed {
                context: "task criterion",
                ..
            })
        ));
    }

    #[test]
    fn garbage_history_is_a_structured_error() {
        let task = TaskMsg {
            task_id: 0,
            attempt: 0,
            criterion: "du".to_owned(),
            search: component_search(),
            history: vec![0xFF; 32],
        };
        let (result, _) = run(&[(FRAME_TASK, encode_task(&task))]);
        assert!(matches!(result, Err(ProtocolError::Malformed { .. })));
    }
}
