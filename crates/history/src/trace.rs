//! A line-oriented text format for histories, plus JSON helpers.
//!
//! The text format has one event per line: a transaction name followed by
//! an action. Invocations: `read X<n>`, `write X<n> <v>`, `tryc`, `trya`.
//! Responses: `val <v>`, `ok`, `commit`, `abort`. Blank lines and lines
//! starting with `#` are ignored.
//!
//! ```text
//! # T1 writes 1 to X0 and commits, T2 reads it
//! T1 write X0 1
//! T1 ok
//! T1 tryc
//! T1 commit
//! T2 read X0
//! T2 val 1
//! T2 tryc
//! T2 commit
//! ```

use crate::binary::BinaryParseError;
use crate::{Event, EventKind, History, MalformedHistoryError, ObjId, Op, Ret, TxnId, Value};
use std::error::Error;
use std::fmt;

/// The longest line [`parse_trace`] accepts, in bytes. Real traces keep
/// lines under a few dozen bytes; anything longer is hostile input.
pub const MAX_LINE_BYTES: usize = 4096;

/// The largest transaction or t-object index [`parse_trace`] accepts.
/// Checkers index dense arrays by these ids, so an attacker-supplied giant
/// id would translate directly into a giant allocation.
pub const MAX_ID: u32 = 1_000_000;

/// Why a trace failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// A line did not match the grammar.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based byte column of the offending token.
        column: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// The parsed events are not a well-formed history.
    Malformed(MalformedHistoryError),
    /// The JSON input failed to deserialize into a well-formed history.
    Json {
        /// The underlying deserializer message.
        message: String,
    },
    /// A `.duob` binary trace failed to decode.
    Binary(BinaryParseError),
}

impl TraceParseError {
    /// Renders the error as structured serde content, so tools can emit it
    /// as one JSON object: `{"error": "syntax", "line": N, "column": N,
    /// "message": "..."}`.
    pub fn to_content(&self) -> serde::Content {
        let mut fields = Vec::new();
        match self {
            TraceParseError::Syntax {
                line,
                column,
                message,
            } => {
                fields.push(("error".into(), serde::Content::Str("syntax".into())));
                fields.push(("line".into(), serde::Content::U64(*line as u64)));
                fields.push(("column".into(), serde::Content::U64(*column as u64)));
                fields.push(("message".into(), serde::Content::Str(message.clone())));
            }
            TraceParseError::Malformed(err) => {
                fields.push(("error".into(), serde::Content::Str("malformed".into())));
                fields.push(("message".into(), serde::Content::Str(err.to_string())));
            }
            TraceParseError::Json { message } => {
                fields.push(("error".into(), serde::Content::Str("json".into())));
                fields.push(("message".into(), serde::Content::Str(message.clone())));
            }
            TraceParseError::Binary(err) => {
                fields.push(("error".into(), serde::Content::Str("binary".into())));
                fields.push(("message".into(), serde::Content::Str(err.to_string())));
            }
        }
        serde::Content::Map(fields)
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Syntax {
                line,
                column,
                message,
            } => {
                write!(
                    f,
                    "trace syntax error on line {line}, column {column}: {message}"
                )
            }
            TraceParseError::Malformed(err) => write!(f, "trace is malformed: {err}"),
            TraceParseError::Json { message } => write!(f, "trace JSON error: {message}"),
            TraceParseError::Binary(err) => write!(f, "binary trace error: {err}"),
        }
    }
}

impl Error for TraceParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceParseError::Malformed(err) => Some(err),
            TraceParseError::Binary(err) => Some(err),
            TraceParseError::Syntax { .. } | TraceParseError::Json { .. } => None,
        }
    }
}

impl From<MalformedHistoryError> for TraceParseError {
    fn from(err: MalformedHistoryError) -> Self {
        TraceParseError::Malformed(err)
    }
}

impl From<BinaryParseError> for TraceParseError {
    fn from(err: BinaryParseError) -> Self {
        // Well-formedness violations are the same error whichever encoding
        // carried the events; keep them under `Malformed` so callers match
        // one variant for both formats.
        match err {
            BinaryParseError::Malformed(inner) => TraceParseError::Malformed(inner),
            other => TraceParseError::Binary(other),
        }
    }
}

fn syntax(line: usize, column: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError::Syntax {
        line,
        column,
        message: message.into(),
    }
}

/// Splits a raw line into whitespace-separated tokens, each paired with
/// its 1-based byte column.
fn tokens(raw: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    let mut rest = raw;
    let mut base = 0usize;
    std::iter::from_fn(move || {
        let skip = rest.find(|c: char| !c.is_whitespace())?;
        let start = base + skip;
        let after = &rest[skip..];
        let len = after.find(char::is_whitespace).unwrap_or(after.len());
        rest = &after[len..];
        base = start + len;
        Some((start + 1, &after[..len]))
    })
}

fn parse_txn(token: &str, line: usize, col: usize) -> Result<TxnId, TraceParseError> {
    let digits = token.strip_prefix('T').unwrap_or(token);
    let index: u32 = digits
        .parse()
        .map_err(|_| syntax(line, col, format!("invalid transaction `{token}`")))?;
    if index == 0 {
        return Err(syntax(line, col, "transaction T0 is reserved"));
    }
    if index > MAX_ID {
        return Err(syntax(
            line,
            col,
            format!("transaction id {index} exceeds the maximum {MAX_ID}"),
        ));
    }
    Ok(TxnId::new(index))
}

fn parse_obj(token: &str, line: usize, col: usize) -> Result<ObjId, TraceParseError> {
    let digits = token.strip_prefix('X').unwrap_or(token);
    let index: u32 = digits
        .parse()
        .map_err(|_| syntax(line, col, format!("invalid t-object `{token}`")))?;
    if index > MAX_ID {
        return Err(syntax(
            line,
            col,
            format!("t-object id {index} exceeds the maximum {MAX_ID}"),
        ));
    }
    Ok(ObjId::new(index))
}

fn parse_value(token: &str, line: usize, col: usize) -> Result<Value, TraceParseError> {
    let v: u64 = token
        .parse()
        .map_err(|_| syntax(line, col, format!("invalid value `{token}`")))?;
    Ok(Value::new(v))
}

/// Parses the line-oriented trace format into a validated [`History`].
///
/// # Errors
///
/// Returns [`TraceParseError::Syntax`] for grammar violations and
/// [`TraceParseError::Malformed`] if the events do not form a well-formed
/// history.
///
/// # Examples
///
/// ```
/// use duop_history::trace::parse_trace;
///
/// let h = parse_trace("T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\n")?;
/// assert!(h.is_t_complete());
/// # Ok::<(), duop_history::trace::TraceParseError>(())
/// ```
pub fn parse_trace(input: &str) -> Result<History, TraceParseError> {
    let mut events = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        if let Some(event) = parse_line(raw, i + 1)? {
            events.push(event);
        }
    }
    Ok(History::new(events)?)
}

/// Parses one raw line of the trace format, returning `Ok(None)` for blank
/// lines and comments. `line_no` is the 1-based line number used in error
/// positions.
///
/// This is the streaming building block behind [`parse_trace`]: a line at
/// a time feeds an online checker without materialising the event vector.
///
/// # Errors
///
/// Returns [`TraceParseError::Syntax`] for grammar violations.
pub fn parse_line(raw: &str, line_no: usize) -> Result<Option<Event>, TraceParseError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(syntax(
            line_no,
            MAX_LINE_BYTES + 1,
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    if let Some(pos) = raw.find(|c: char| c.is_control() && c != '\t') {
        return Err(syntax(
            line_no,
            pos + 1,
            "line contains a control character",
        ));
    }
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let end_col = raw.trim_end().len() + 1;
    let mut toks = tokens(raw);
    let (txn_col, txn_tok) = toks
        .next()
        .ok_or_else(|| syntax(line_no, 1, "missing transaction"))?;
    let txn = parse_txn(txn_tok, line_no, txn_col)?;
    let (action_col, action) = toks
        .next()
        .ok_or_else(|| syntax(line_no, end_col, "missing action"))?;
    let mut operand = |what: &str| {
        toks.next()
            .ok_or_else(|| syntax(line_no, end_col, format!("{action} needs {what}")))
    };
    let event = match action {
        "read" => {
            let (col, tok) = operand("an object")?;
            Event::inv(txn, Op::Read(parse_obj(tok, line_no, col)?))
        }
        "write" => {
            let (ocol, otok) = operand("an object")?;
            let obj = parse_obj(otok, line_no, ocol)?;
            let (vcol, vtok) = operand("a value")?;
            let value = parse_value(vtok, line_no, vcol)?;
            Event::inv(txn, Op::Write(obj, value))
        }
        "tryc" => Event::inv(txn, Op::TryCommit),
        "trya" => Event::inv(txn, Op::TryAbort),
        "val" => {
            let (col, tok) = operand("a value")?;
            Event::resp(txn, Ret::Value(parse_value(tok, line_no, col)?))
        }
        "ok" => Event::resp(txn, Ret::Ok),
        "commit" => Event::resp(txn, Ret::Committed),
        "abort" => Event::resp(txn, Ret::Aborted),
        other => {
            return Err(syntax(
                line_no,
                action_col,
                format!("unknown action `{other}`"),
            ))
        }
    };
    if let Some((col, extra)) = toks.next() {
        return Err(syntax(
            line_no,
            col,
            format!("unexpected trailing token `{extra}`"),
        ));
    }
    Ok(Some(event))
}

/// Formats one event as a trace-format line, without the newline. Lines
/// are per event, so a run of them may start mid-transaction (a chunk of
/// a streamed trace).
pub fn format_event(ev: &Event) -> String {
    let txn = ev.txn;
    match ev.kind {
        EventKind::Inv(Op::Read(x)) => format!("{txn} read {x}"),
        EventKind::Inv(Op::Write(x, v)) => format!("{txn} write {x} {v}"),
        EventKind::Inv(Op::TryCommit) => format!("{txn} tryc"),
        EventKind::Inv(Op::TryAbort) => format!("{txn} trya"),
        EventKind::Resp(Ret::Value(v)) => format!("{txn} val {v}"),
        EventKind::Resp(Ret::Ok) => format!("{txn} ok"),
        EventKind::Resp(Ret::Committed) => format!("{txn} commit"),
        EventKind::Resp(Ret::Aborted) => format!("{txn} abort"),
    }
}

/// Formats a history in the trace format accepted by [`parse_trace`].
pub fn format_trace(history: &History) -> String {
    let mut out = String::new();
    for ev in history.events() {
        out.push_str(&format_event(ev));
        out.push('\n');
    }
    out
}

/// Serializes a history to JSON (an array of events).
pub fn to_json(history: &History) -> String {
    serde_json::to_string(history).expect("histories serialize infallibly")
}

/// Deserializes a history from JSON, validating well-formedness.
///
/// # Errors
///
/// Returns [`TraceParseError::Json`] for JSON syntax errors and inputs
/// that deserialize but do not form a well-formed history.
pub fn from_json(json: &str) -> Result<History, TraceParseError> {
    serde_json::from_str(json).map_err(|err| TraceParseError::Json {
        message: err.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    fn sample() -> History {
        HistoryBuilder::new()
            .inv_write(TxnId::new(1), ObjId::new(0), Value::new(1))
            .inv_read(TxnId::new(2), ObjId::new(0))
            .resp_ok(TxnId::new(1))
            .resp_value(TxnId::new(2), Value::new(0))
            .inv_try_commit(TxnId::new(1))
            .resp_committed(TxnId::new(1))
            .try_abort(TxnId::new(2))
            .build()
    }

    #[test]
    fn trace_roundtrip() {
        let h = sample();
        let text = format_trace(&h);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn json_roundtrip() {
        let h = sample();
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let h = parse_trace("# header\n\nT1 tryc\nT1 commit\n").unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn bare_numbers_accepted() {
        let h = parse_trace("1 write 0 5\n1 ok\n").unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.participates(TxnId::new(1)));
    }

    #[test]
    fn syntax_errors_are_located() {
        let err = parse_trace("T1 frobnicate").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::Syntax {
                line: 1,
                column: 4,
                ..
            }
        ));

        let err = parse_trace("T1 read").unwrap_err();
        assert!(matches!(err, TraceParseError::Syntax { line: 1, .. }));

        let err = parse_trace("T0 tryc").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::Syntax {
                line: 1,
                column: 1,
                ..
            }
        ));

        let err = parse_trace("T1 tryc extra").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::Syntax {
                line: 1,
                column: 9,
                ..
            }
        ));

        // Errors past the first line carry their own line number.
        let err = parse_trace("T1 tryc\n  T2 bogus X0\n").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::Syntax {
                line: 2,
                column: 6,
                ..
            }
        ));
    }

    #[test]
    fn hostile_inputs_are_structured_errors() {
        // NUL bytes and other control characters.
        let err = parse_trace("T1 \0tryc").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::Syntax {
                line: 1,
                column: 4,
                ..
            }
        ));
        // Overlong lines.
        let long = format!("T1 write X0 {}", "9".repeat(MAX_LINE_BYTES));
        let err = parse_trace(&long).unwrap_err();
        assert!(matches!(err, TraceParseError::Syntax { line: 1, .. }));
        // Giant ids would become giant allocations downstream.
        let err = parse_trace("T999999999 tryc").unwrap_err();
        assert!(matches!(err, TraceParseError::Syntax { .. }));
        let err = parse_trace("T1 read X999999999").unwrap_err();
        assert!(matches!(err, TraceParseError::Syntax { .. }));
        // ... but ids at the cap parse.
        assert!(parse_trace(&format!("T{MAX_ID} read X{MAX_ID}\n")).is_ok());
    }

    #[test]
    fn malformed_traces_rejected() {
        let err = parse_trace("T1 ok\n").unwrap_err();
        assert!(matches!(err, TraceParseError::Malformed(_)));
        // Duplicate responses to one tryC.
        let err = parse_trace("T1 tryc\nT1 commit\nT1 commit\n").unwrap_err();
        assert!(matches!(err, TraceParseError::Malformed(_)));
    }

    #[test]
    fn errors_format_as_json() {
        for input in ["T1 frobnicate", "T1 ok\n", "T0 tryc"] {
            let err = parse_trace(input).unwrap_err();
            let json = serde_json::to_string(&err.to_content()).expect("error serializes");
            assert!(json.contains("\"error\":"), "json: {json}");
            assert!(json.contains("\"message\":"), "json: {json}");
        }
        let err = from_json("[{\"bogus\":").unwrap_err();
        assert!(matches!(err, TraceParseError::Json { .. }));
        let json = serde_json::to_string(&err.to_content()).unwrap();
        assert!(json.contains("\"error\":\"json\""), "json: {json}");
    }
}
