//! `duop client` against a hostile server: a loopback listener answers
//! the client's first request (`POST /v1/session`) with a response that
//! breaks the limits the daemon puts on requests. The client must end
//! with its normal error exit (code 2, an `error:` line), never abort on
//! an allocation or read without bound.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;

use duop_serve::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};

const DUOP: &str = env!("CARGO_BIN_EXE_duop");

fn repo_trace(name: &str) -> String {
    format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/traces/{}"),
        name
    )
}

/// Reads the request head the client sends (its `POST` has an empty
/// body).
fn read_request_head(stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" {
            return;
        }
    }
}

/// Writes `head`, then `filler` bytes of `b'a'` in 64 KiB pieces until
/// `filler` is spent or the client hangs up.
fn answer(mut stream: TcpStream, head: &str, filler: usize) {
    read_request_head(&stream);
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let piece = vec![b'a'; 64 * 1024];
    let mut left = filler;
    while left > 0 {
        let n = left.min(piece.len());
        if stream.write_all(&piece[..n]).is_err() {
            return;
        }
        left -= n;
    }
}

/// Runs `duop client` against a listener that sends `head` and `filler`
/// bytes, and returns the client's exit code and output.
fn client_against(head: &'static str, filler: usize) -> (Option<i32>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address").to_string();
    let server = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            answer(stream, head, filler);
        }
    });
    let out = Command::new(DUOP)
        .args(["client", &repo_trace("clean.txt"), "--addr", &addr])
        .output()
        .expect("run duop client");
    // Unblocks the accept should the client have exited without
    // connecting; the server then answers this empty connection.
    drop(TcpStream::connect(&addr));
    server.join().expect("hostile server thread");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn assert_error_exit(case: &str, (code, text): (Option<i32>, String), message: &str) {
    assert_eq!(code, Some(2), "{case}: exit code, output:\n{text}");
    assert!(
        text.contains("error:") && text.contains(message),
        "{case}: expected an error mentioning `{message}`, got:\n{text}"
    );
}

#[test]
fn huge_declared_length_is_an_error() {
    let result = client_against(
        "HTTP/1.1 201 Created\r\nContent-Length: 1000000000000\r\n\r\n",
        0,
    );
    assert_error_exit("huge Content-Length", result, "1000000000000-byte body");
}

#[test]
fn endless_header_line_is_an_error() {
    let result = client_against("HTTP/1.1 201 Created\r\nX-Flood: ", 4 * MAX_HEAD_BYTES);
    assert_error_exit("endless header line", result, "head exceeds");
}

#[test]
fn over_limit_body_without_length_is_an_error() {
    let result = client_against(
        "HTTP/1.1 201 Created\r\nConnection: close\r\n\r\n",
        MAX_BODY_BYTES + 64 * 1024,
    );
    assert_error_exit("over-limit body", result, "body exceeds");
}
