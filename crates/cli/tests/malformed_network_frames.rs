//! Robustness corpus for the TCP shard transport: a `shard-serve`
//! daemon fed hostile bytes in place of the authenticated hello must
//! reject the connection before reading a single task frame and keep
//! serving — never panic, never wedge — and a coordinator pointed at a
//! garbage-speaking listener must return, never hang. The network
//! mirror of `malformed_shard_frames.rs`.

use duop_core::SearchConfig;
use duop_history::binary::{crc32, write_varint};
use duop_shard::protocol::{
    auth_tag, decode_challenge, encode_auth, encode_hello, encode_task, FrameReader, TaskMsg,
    FRAME_AUTH, FRAME_CHALLENGE, FRAME_HEARTBEAT, FRAME_HELLO, FRAME_SHUTDOWN, FRAME_TASK,
    MAX_PAYLOAD_BYTES, NONCE_LEN, TAG_LEN,
};
use duop_shard::{
    run_sharded, ShardConfig, ShardCriterion, ShardJob, ShardServeConfig, ShardServer,
};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const SECRET: &[u8] = b"corpus-secret";

/// Starts an in-process daemon; the caller talks raw TCP to it. The
/// thread (and its socket) die with the shutdown handle at test end.
fn start_daemon() -> (SocketAddr, duop_serve::ShutdownHandle) {
    let server = ShardServer::bind(ShardServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        secret: SECRET.to_vec(),
        drop_conn: None,
        stall_conn: None,
    })
    .expect("bind shard-serve");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        server.run(&mut sink).expect("daemon accept loop");
    });
    (addr, handle)
}

/// Connects and reads the daemon's challenge nonce.
fn connect_and_read_challenge(addr: SocketAddr) -> (TcpStream, [u8; NONCE_LEN]) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let (ty, payload) = reader
        .read_frame()
        .expect("challenge frame decodes")
        .expect("daemon sends a challenge");
    assert_eq!(ty, FRAME_CHALLENGE, "first daemon frame is the challenge");
    let nonce = decode_challenge(payload).expect("challenge payload decodes");
    (stream, nonce)
}

/// A raw frame with independent control over every field.
fn raw_frame(ty: u8, payload: &[u8], crc: u32) -> Vec<u8> {
    let mut out = vec![ty];
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn good_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut covered = vec![ty];
    covered.extend_from_slice(payload);
    raw_frame(ty, payload, crc32(&covered))
}

fn sample_task_frame() -> Vec<u8> {
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
    let h = HistoryBuilder::new()
        .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
        .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
        .build();
    good_frame(
        FRAME_TASK,
        &encode_task(&TaskMsg {
            task_id: 0,
            attempt: 0,
            criterion: "du".to_owned(),
            search: SearchConfig {
                prelint: false,
                ladder: false,
                saturate: false,
                ..SearchConfig::default()
            },
            history: duop_history::binary::encode(&h),
        }),
    )
}

/// Drains the connection, returning every frame type the daemon sent
/// after the bytes under test (heartbeats only start post-auth, so any
/// `FRAME_HELLO` here means the hostile bytes authenticated).
fn drain_frame_types(stream: &TcpStream) -> Vec<u8> {
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let mut seen = Vec::new();
    loop {
        match reader.read_frame() {
            Ok(Some((ty, _))) => seen.push(ty),
            Ok(None) | Err(_) => return seen,
        }
    }
}

/// Completes a legitimate handshake and hello exchange, proving the
/// daemon is alive and still accepts honest coordinators.
fn good_handshake_succeeds(addr: SocketAddr) {
    let (mut stream, nonce) = connect_and_read_challenge(addr);
    let mut bytes = good_frame(FRAME_AUTH, &encode_auth(&auth_tag(SECRET, &nonce)));
    bytes.extend_from_slice(&good_frame(FRAME_HELLO, &encode_hello()));
    stream.write_all(&bytes).unwrap();
    stream.flush().unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    loop {
        let (ty, _) = reader
            .read_frame()
            .expect("worker reply decodes")
            .expect("worker replies before EOF");
        if ty == FRAME_HEARTBEAT {
            continue;
        }
        assert_eq!(ty, FRAME_HELLO, "worker answers the hello");
        break;
    }
    stream.write_all(&good_frame(FRAME_SHUTDOWN, &[])).unwrap();
}

/// Hostile bytes built per-connection from the challenge nonce, so
/// entries can be almost-right.
type HostileBytes = Box<dyn Fn(&[u8; NONCE_LEN]) -> Vec<u8>>;

/// Each corpus entry: a label and the hostile bytes sent where the
/// `FRAME_AUTH` answer belongs.
fn corpus() -> Vec<(&'static str, HostileBytes)> {
    vec![
        (
            "garbage-instead-of-auth",
            Box::new(|_| vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF, 0x13, 0x37]),
        ),
        (
            "http-request-instead-of-auth",
            // A port scanner or misdirected curl must bounce cleanly.
            Box::new(|_| b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec()),
        ),
        (
            "hello-before-auth",
            Box::new(|_| good_frame(FRAME_HELLO, &encode_hello())),
        ),
        ("task-before-auth", Box::new(|_| sample_task_frame())),
        (
            "wrong-secret-tag",
            Box::new(|nonce| {
                good_frame(
                    FRAME_AUTH,
                    &encode_auth(&auth_tag(b"not-the-secret", nonce)),
                )
            }),
        ),
        (
            "flipped-tag-bits",
            Box::new(|nonce| {
                let mut tag = auth_tag(SECRET, nonce);
                for b in &mut tag {
                    *b = !*b;
                }
                good_frame(FRAME_AUTH, &encode_auth(&tag))
            }),
        ),
        (
            "short-tag-payload",
            Box::new(|nonce| {
                let tag = auth_tag(SECRET, nonce);
                good_frame(FRAME_AUTH, &tag[..TAG_LEN / 2])
            }),
        ),
        (
            "empty-auth-payload",
            Box::new(|_| good_frame(FRAME_AUTH, &[])),
        ),
        (
            "crc-flip-on-valid-auth",
            Box::new(|nonce| {
                let mut b = good_frame(FRAME_AUTH, &encode_auth(&auth_tag(SECRET, nonce)));
                let flip = b.len() - 6; // a payload byte, not the stored CRC
                b[flip] ^= 0xFF;
                b
            }),
        ),
        (
            "oversized-declared-length",
            Box::new(|_| {
                let mut b = vec![FRAME_AUTH];
                write_varint(&mut b, (MAX_PAYLOAD_BYTES + 1) as u64);
                b
            }),
        ),
        (
            "unterminated-varint-length",
            Box::new(|_| {
                let mut b = vec![FRAME_AUTH];
                b.extend_from_slice(&[0xFF; 11]);
                b
            }),
        ),
    ]
}

#[test]
fn hostile_hello_bytes_are_rejected_before_any_task_frame() {
    let (addr, handle) = start_daemon();
    for (label, bytes_for) in corpus() {
        let (mut stream, nonce) = connect_and_read_challenge(addr);
        stream.write_all(&bytes_for(&nonce)).unwrap();
        stream.flush().unwrap();
        let _ = stream.shutdown(Shutdown::Write);
        let seen = drain_frame_types(&stream);
        assert!(
            !seen.contains(&FRAME_HELLO) && !seen.contains(&FRAME_HEARTBEAT),
            "{label}: hostile bytes must never authenticate (daemon sent {seen:?})"
        );
        // The rejection cost one connection, not the daemon.
        good_handshake_succeeds(addr);
    }
    handle.shutdown();
}

#[test]
fn replayed_tag_from_another_connection_is_rejected() {
    let (addr, handle) = start_daemon();
    // Connection A's tag is valid — for connection A's nonce only.
    let (mut stream_a, nonce_a) = connect_and_read_challenge(addr);
    let tag_a = auth_tag(SECRET, &nonce_a);

    // Replaying it on connection B must bounce before any task frame.
    let (mut stream_b, nonce_b) = connect_and_read_challenge(addr);
    assert_ne!(nonce_a, nonce_b, "every connection gets a fresh nonce");
    stream_b
        .write_all(&good_frame(FRAME_AUTH, &encode_auth(&tag_a)))
        .unwrap();
    stream_b.flush().unwrap();
    let _ = stream_b.shutdown(Shutdown::Write);
    let seen = drain_frame_types(&stream_b);
    assert!(
        !seen.contains(&FRAME_HELLO) && !seen.contains(&FRAME_HEARTBEAT),
        "replayed tag must not authenticate (daemon sent {seen:?})"
    );

    // The same tag still authenticates the connection it was minted
    // for: the rejection above was the replay, not the tag.
    let mut bytes = good_frame(FRAME_AUTH, &encode_auth(&tag_a));
    bytes.extend_from_slice(&good_frame(FRAME_HELLO, &encode_hello()));
    stream_a.write_all(&bytes).unwrap();
    stream_a.flush().unwrap();
    let mut reader = FrameReader::new(stream_a.try_clone().unwrap());
    loop {
        let (ty, _) = reader
            .read_frame()
            .expect("worker reply decodes")
            .expect("connection A still authenticates");
        if ty == FRAME_HEARTBEAT {
            continue;
        }
        assert_eq!(ty, FRAME_HELLO);
        break;
    }
    handle.shutdown();
}

#[test]
fn truncation_at_every_offset_never_kills_the_daemon() {
    let (addr, handle) = start_daemon();
    // The full post-challenge transcript: auth, coordinator hello, one
    // task. Rebuilt per connection (the tag binds the fresh nonce) and
    // cut at every byte offset; cuts at frame boundaries are a clean
    // wind-down, cuts inside a frame a structured rejection — either
    // way the daemon survives.
    let transcript_len = {
        let (stream, nonce) = connect_and_read_challenge(addr);
        drop(stream);
        let mut t = good_frame(FRAME_AUTH, &encode_auth(&auth_tag(SECRET, &nonce)));
        t.extend_from_slice(&good_frame(FRAME_HELLO, &encode_hello()));
        t.extend_from_slice(&sample_task_frame());
        t.len()
    };
    for cut in 0..=transcript_len {
        let (mut stream, nonce) = connect_and_read_challenge(addr);
        let mut transcript = good_frame(FRAME_AUTH, &encode_auth(&auth_tag(SECRET, &nonce)));
        transcript.extend_from_slice(&good_frame(FRAME_HELLO, &encode_hello()));
        transcript.extend_from_slice(&sample_task_frame());
        stream.write_all(&transcript[..cut]).unwrap();
        stream.flush().unwrap();
        let _ = stream.shutdown(Shutdown::Write);
        // Drain until the daemon closes its side; a hang here (not a
        // clean EOF within the read timeout) fails the test.
        drain_frame_types(&stream);
    }
    good_handshake_succeeds(addr);
    handle.shutdown();
}

/// A "daemon" that speaks garbage (or nothing) at coordinators. The
/// coordinator must burn its reconnect budget and return a sound
/// degraded verdict — never hang, never report a wrong one.
#[test]
fn coordinator_never_hangs_on_a_garbage_speaking_listener() {
    use duop_core::{UnknownReason, Verdict};
    use duop_gen::{HistoryGen, HistoryGenConfig};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind imposter");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Answer every dial with junk where the challenge belongs.
        while let Ok((mut stream, _)) = listener.accept() {
            let _ = stream.write_all(b"\x00\x01NOT-A-CHALLENGE\xFF\xFE");
            let _ = stream.shutdown(Shutdown::Both);
        }
    });

    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(20), 3).generate();
    let cfg = ShardConfig {
        workers: 0, // remote-only pool: the imposter is all we have
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_duop").to_owned(),
            "shard-worker".to_owned(),
        ],
        connect: vec![addr.to_string()],
        secret: SECRET.to_vec(),
        // Force a real dispatched task: the prefilters must not decide
        // the history in-coordinator.
        search: SearchConfig {
            prelint: false,
            ladder: false,
            saturate: false,
            ..SearchConfig::default()
        },
        ..ShardConfig::default()
    };
    let verdicts = run_sharded(
        vec![ShardJob {
            history: h,
            criterion: ShardCriterion::Plan(duop_core::PlanCriterion::Du),
        }],
        &cfg,
    )
    .expect("the run degrades instead of failing");
    match &verdicts[0] {
        Verdict::Unknown {
            reason: UnknownReason::WorkerDeath,
            ..
        } => {}
        other => panic!("expected unknown (worker-death), got {other:?}"),
    }
}
