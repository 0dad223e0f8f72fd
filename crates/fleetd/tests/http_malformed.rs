//! Adversarial HTTP-layer tests against a live daemon: malformed request
//! lines, oversized inputs, bad specs. Every case must produce a typed 4xx
//! (or 5xx for unsupported versions and transfer codings) JSON error —
//! never a panic, never a hung connection, and never a leaked job slot.

mod common;

use common::TestDaemon;

#[test]
fn malformed_requests_get_typed_errors_and_the_daemon_survives() {
    let daemon = TestDaemon::start("malformed", 1, 2);

    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10 * 1024));
    let many_headers = {
        let mut text = String::from("GET /jobs HTTP/1.1\r\n");
        for i in 0..100 {
            text.push_str(&format!("X-Pad-{i}: v\r\n"));
        }
        text.push_str("\r\n");
        text
    };
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        // Request-line shapes.
        ("missing version", b"GET /jobs\r\n\r\n".to_vec(), 400),
        ("empty request line", b"\r\n\r\n".to_vec(), 400),
        (
            "non-alphabetic method",
            b"B@D /jobs HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "http/2 preface",
            b"GET /jobs HTTP/2.0\r\n\r\n".to_vec(),
            505,
        ),
        ("oversized request line", long_target.into_bytes(), 431),
        // Header shapes.
        ("too many headers", many_headers.into_bytes(), 431),
        (
            "header without a colon",
            b"GET /jobs HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
            400,
        ),
        (
            "unparseable content length",
            b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
            400,
        ),
        (
            "chunked body",
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            "oversized declared body",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_vec(),
            413,
        ),
        // Routing.
        (
            "unknown endpoint",
            b"GET /nope HTTP/1.1\r\n\r\n".to_vec(),
            404,
        ),
        (
            "wrong method on /jobs",
            b"DELETE /jobs HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        (
            "wrong method on a job path",
            b"PUT /jobs/1 HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        (
            "non-numeric job id",
            b"GET /jobs/abc HTTP/1.1\r\n\r\n".to_vec(),
            404,
        ),
        (
            "missing job",
            b"GET /jobs/999 HTTP/1.1\r\n\r\n".to_vec(),
            404,
        ),
        (
            "missing job report",
            b"GET /jobs/999/report HTTP/1.1\r\n\r\n".to_vec(),
            404,
        ),
        (
            "bad shutdown mode",
            b"POST /shutdown?mode=now HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        // The echoed request line is >80 bytes of multibyte text, forcing
        // the display-truncation path to cut on a char boundary.
        (
            "multibyte garbage request line",
            format!("GET /jobs {} HTTP/1.1\r\n\r\n", "é".repeat(60)).into_bytes(),
            400,
        ),
        // Spec-level rejections (parsed before any slot is allocated).
        ("unparseable spec JSON", spec_request("{not json"), 400),
        (
            "non-UTF-8 spec body",
            spec_request_bytes(&[0xff, 0xfe, 0xfd]),
            400,
        ),
        ("zero devices", spec_request(r#"{"devices": 0}"#), 400),
        (
            "unbounded threads",
            spec_request(r#"{"devices": 1000000, "threads": 1000000}"#),
            400,
        ),
        (
            "unknown spec field",
            spec_request(r#"{"devices": 4, "turbo": true}"#),
            400,
        ),
        // The unknown field name carries a quote and a backslash, which the
        // error body must escape for the response to stay parseable JSON.
        (
            "spec error echoing a quoted field name",
            spec_request(r#"{"devices": 4, "tur\"bo\\": true}"#),
            400,
        ),
        // A repeated key is rejected, not resolved to its first value.
        (
            "repeated spec field",
            spec_request(r#"{"devices": 4, "mix": "cohort", "mix": "nope"}"#),
            400,
        ),
        (
            "unknown mix",
            spec_request(r#"{"devices": 4, "mix": "chaotic"}"#),
            400,
        ),
        (
            "wrong report mode",
            spec_request(r#"{"devices": 4, "report_mode": "fancy"}"#),
            400,
        ),
    ];

    for (name, request, expected) in cases {
        let (status, body) = daemon.raw(&request);
        assert_eq!(status, expected, "case `{name}`: body {:?}", body);
        let text = String::from_utf8(body).unwrap_or_else(|_| panic!("case `{name}`: UTF-8 body"));
        assert!(
            text.starts_with(r#"{"error":"#),
            "case `{name}`: typed JSON error, got {text}"
        );
        // Not just a prefix check: every error body must parse back into the
        // typed shape, even when it echoes attacker-controlled text.
        let parsed: Result<fleetd::http::ErrorBody, _> = serde_json::from_str(&text);
        assert!(
            parsed.is_ok(),
            "case `{name}`: error body is not valid JSON: {text}"
        );
    }

    // A request truncated mid-line is a typed 400, not a hang or a panic.
    let (status, _) = daemon.raw_truncated(b"GET /jo");
    assert_eq!(status, 400);
    let (status, _) = daemon.raw_truncated(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nab");
    assert_eq!(status, 400);

    // None of the above leaked a job slot: with queue depth 2, two fresh
    // submissions are still accepted and run to completion.
    let (status, body) = daemon.request("POST", "/jobs", Some(r#"{"devices": 1, "shards": 1}"#));
    assert_eq!(status, 202, "first real submission: {body}");
    let first = common::job_id(&body);
    let (status, body) = daemon.request("POST", "/jobs", Some(r#"{"devices": 1, "shards": 1}"#));
    assert_eq!(status, 202, "second real submission: {body}");
    let second = common::job_id(&body);
    assert!(daemon.wait_done(first).contains("\"state\":\"done\""));
    assert!(daemon.wait_done(second).contains("\"state\":\"done\""));

    daemon.cleanup();
}

/// A syntactically valid `POST /jobs` carrying `body` as the spec.
fn spec_request(body: &str) -> Vec<u8> {
    spec_request_bytes(body.as_bytes())
}

fn spec_request_bytes(body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}
