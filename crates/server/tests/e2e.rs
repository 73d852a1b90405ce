//! End-to-end serving tests: a real listener on an ephemeral port,
//! real sockets, concurrent clients mixing well-formed queries, parse
//! errors, protocol violations, and overload — and byte-identity
//! between what the wire returns and what a direct [`Engine`] query
//! produces.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xmorph_core::{Engine, QueryRequest};
use xmorph_server::proto::{encode_frame, fnv1a64, OpCode};
use xmorph_server::{Client, ErrorCode, QueryOpts, Reply, Server, ServerConfig};

/// Fig. 1(c)'s shape: two books under one author, so the book-major
/// reshaping below is a *widening* the typing discipline rejects
/// without a CAST.
const LIBRARY: &str = "<library>\
    <author><name>Moriarty</name>\
        <book><title>Crime</title><publisher><name>Reichenbach</name></publisher></book>\
        <book><title>Maths</title><publisher><name>Baker</name></publisher></book>\
    </author>\
    <author><name>Adler</name>\
        <book><title>Opera</title><publisher><name>Scandal</name></publisher></book>\
    </author>\
</library>";

const GOOD_GUARD: &str = "MORPH author [ name book [ title ] ]";
const REJECTED_GUARD: &str = "MORPH author [ !title name publisher [ name ] ]";

fn serve(config: ServerConfig) -> (xmorph_server::ServerHandle, Engine) {
    let engine = Engine::from_xml(LIBRARY).expect("shred");
    let reference = Engine::from_xml(LIBRARY).expect("shred reference");
    let handle = Server::builder()
        .register("library", engine)
        .config(config)
        .bind("127.0.0.1:0")
        .expect("bind");
    (handle, reference)
}

#[test]
fn query_matches_direct_engine_byte_for_byte() {
    let (handle, reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let expected = reference
        .query(&QueryRequest::builder(GOOD_GUARD).build())
        .unwrap();
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { typing, xml, stats } => {
            assert_eq!(xml, expected.xml, "wire result must be byte-identical");
            assert_eq!(
                typing, expected.typing as u8,
                "typing class crosses the wire"
            );
            assert!(stats.is_none(), "stats not requested");
        }
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn want_stats_returns_a_stats_frame() {
    let (handle, _reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let opts = QueryOpts {
        want_stats: true,
        threads: 2,
        ..Default::default()
    };
    match client.query("library", GOOD_GUARD, opts).unwrap() {
        Reply::Result { stats, .. } => {
            let stats = stats.expect("stats frame follows the result");
            assert_eq!(stats.threads, 2);
            assert!(stats.render_ns > 0, "render phase was timed");
        }
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn xquery_is_served_via_guard_inference() {
    let (handle, reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // The inferred guard for this navigation is `MORPH author [ name ]`
    // (paths below the document element).
    let xquery = r#"doc("d")/library/author/name"#;
    let expected = reference
        .query(&QueryRequest::builder("MORPH author [ name ]").build())
        .unwrap();
    match client
        .xquery("library", xquery, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { xml, .. } => assert_eq!(xml, expected.xml),
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn typed_errors_for_bad_requests() {
    let (handle, _reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Parse error.
    match client
        .query("library", "MORPH [ [", QueryOpts::default())
        .unwrap()
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::GuardParse),
        other => panic!("{other:?}"),
    }
    // Typing rejection (widening without a CAST).
    match client
        .query("library", REJECTED_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::Rejected);
            assert!(!message.is_empty());
        }
        other => panic!("{other:?}"),
    }
    // Unknown store.
    match client
        .query("nope", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownStore),
        other => panic!("{other:?}"),
    }
    // The connection survived all three failures.
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { .. } => {}
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_guard_nested_past_the_limit_gets_a_parse_error_and_the_session_lives() {
    let (handle, _reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // 100k levels would overflow a connection thread's stack if the
    // parser followed them.
    let guard = format!(
        "MORPH {}name{}",
        "author [ ".repeat(100_000),
        " ]".repeat(100_000)
    );
    match client
        .query("library", &guard, QueryOpts::default())
        .unwrap()
    {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::GuardParse);
            assert!(message.contains("nests deeper"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    match client.ping().unwrap() {
        Reply::Result { .. } => {}
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn ping_stats_and_list_stores() {
    let (handle, _reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(
        client.list_stores().unwrap().unwrap(),
        vec!["library".to_string()]
    );
    let stats = client.stats("library").unwrap().unwrap();
    assert_eq!(stats.threads, 0, "store-wide stats carry no thread count");
    match client.stats("nope").unwrap() {
        Err(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::UnknownStore),
        other => panic!("{other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn oversized_request_gets_typed_error_then_close() {
    let (handle, _reference) = serve(ServerConfig {
        max_payload: 1024,
        ..Default::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let big = "x".repeat(4096);
    let frame = encode_frame(
        OpCode::Query,
        &xmorph_server::proto::QueryPayload {
            store: "library".into(),
            threads: 0,
            flags: 0,
            text: big,
        }
        .encode(),
    );
    client.send_raw(&frame).unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.opcode, OpCode::Error);
    let err = xmorph_server::proto::ErrorPayload::decode(&reply.payload).unwrap();
    assert_eq!(err.code, ErrorCode::Oversized);
    // The server closed the (desynchronized) connection.
    assert!(client.recv_frame().is_err());
    handle.shutdown().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_never_hangs() {
    for mutation in ["magic", "header-checksum", "payload-checksum", "garbage"] {
        let (handle, _reference) = serve(ServerConfig::default());
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut frame = encode_frame(OpCode::Ping, &[]);
        match mutation {
            "magic" => frame[0] ^= 0xff,
            "header-checksum" => frame[33] ^= 0xff,
            "payload-checksum" => {
                // Declare a payload but corrupt its checksum field (then
                // re-sum the header so only the payload check fires).
                frame = encode_frame(OpCode::Ping, b"abc");
                frame[24] ^= 0xff;
                let sum = fnv1a64(&frame[..32]);
                frame[32..40].copy_from_slice(&sum.to_le_bytes());
            }
            _ => frame = [0xde, 0xad, 0xbe, 0xef].repeat(10),
        }
        client.send_raw(&frame).unwrap();
        let reply = client.recv_frame().unwrap_or_else(|e| {
            panic!("mutation {mutation}: expected a typed error frame, got {e:?}")
        });
        assert_eq!(reply.opcode, OpCode::Error, "mutation {mutation}");
        handle.shutdown().unwrap();
    }
}

#[test]
fn busy_when_inflight_limit_is_full() {
    let (handle, _reference) = serve(ServerConfig {
        max_inflight: 1,
        query_hold: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = handle.addr();
    let busy_seen = AtomicUsize::new(0);
    let ok_seen = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                match client
                    .query("library", GOOD_GUARD, QueryOpts::default())
                    .unwrap()
                {
                    Reply::Result { .. } => ok_seen.fetch_add(1, Ordering::Relaxed),
                    Reply::Busy(limit) => {
                        assert_eq!(limit, 1);
                        busy_seen.fetch_add(1, Ordering::Relaxed)
                    }
                    Reply::Error { code, message } => panic!("{code:?}: {message}"),
                    other => panic!("{other:?}"),
                };
            });
        }
    });
    assert!(ok_seen.load(Ordering::Relaxed) >= 1, "someone got through");
    assert!(
        busy_seen.load(Ordering::Relaxed) >= 1,
        "with a 300ms hold and one slot, overload must answer BUSY"
    );
    let metrics = handle.shutdown().unwrap();
    assert_eq!(
        metrics.queries_busy as usize,
        busy_seen.load(Ordering::Relaxed)
    );
    assert_eq!(metrics.queries_ok as usize, ok_seen.load(Ordering::Relaxed));
}

#[test]
fn busy_at_accept_when_session_limit_is_full() {
    let (handle, _reference) = serve(ServerConfig {
        max_sessions: 1,
        ..Default::default()
    });
    let mut first = Client::connect(handle.addr()).unwrap();
    first.ping().unwrap(); // session established
    let mut second = Client::connect(handle.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The BUSY frame arrives unprompted, before any request.
    let frame = second.recv_frame().unwrap();
    assert_eq!(frame.opcode, OpCode::Busy);
    drop(second);
    // Releasing the first session frees the slot.
    drop(first);
    std::thread::sleep(Duration::from_millis(200));
    let mut third = Client::connect(handle.addr()).unwrap();
    match third.ping().unwrap() {
        Reply::Result { .. } => {}
        other => panic!("{other:?}"),
    }
    let metrics = handle.shutdown().unwrap();
    assert!(metrics.sessions_rejected >= 1);
    assert!(metrics.sessions_admitted >= 2);
}

#[test]
fn concurrent_clients_all_get_identical_results() {
    let (handle, reference) = serve(ServerConfig::default());
    let addr = handle.addr();
    let expected = reference
        .query(&QueryRequest::builder(GOOD_GUARD).build())
        .unwrap()
        .xml;
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let expected = expected.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..5 {
                    match client
                        .query("library", GOOD_GUARD, QueryOpts::default())
                        .unwrap()
                    {
                        Reply::Result { xml, .. } => {
                            assert_eq!(xml, expected, "worker {worker} round {round}")
                        }
                        Reply::Busy(_) => { /* admission is allowed to push back */ }
                        Reply::Error { code, message } => panic!("{code:?}: {message}"),
                        other => panic!("{other:?}"),
                    }
                }
            });
        }
    });
    let metrics = handle.shutdown().unwrap();
    assert!(metrics.queries_ok >= 1);
    assert_eq!(metrics.protocol_errors, 0);
}

#[test]
fn writes_over_the_wire_publish_new_epochs() {
    let (handle, reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Find the first author name's Dewey on the twin: same document,
    // same shredder, so the paths coincide.
    let name_dewey = {
        let doc = reference.doc();
        let t = doc
            .types()
            .lookup(&[
                "library".to_string(),
                "author".to_string(),
                "name".to_string(),
            ])
            .expect("author name type");
        doc.scan_type(t).remove(0).0.to_string()
    };

    // UPDATE: new text visible to the next query, epoch advanced.
    match client.update("library", &name_dewey, "Milverton").unwrap() {
        Reply::Applied { kind, epoch, .. } => {
            assert_eq!(kind, xmorph_server::proto::APPLIED_UPDATED);
            assert!(epoch >= 1);
        }
        other => panic!("{other:?}"),
    }
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { xml, .. } => assert!(
            xml.contains("<name>Milverton</name>"),
            "update must be visible to a post-write query: {xml}"
        ),
        other => panic!("{other:?}"),
    }

    // INSERT: a new author appended under the library root.
    match client
        .insert(
            "library",
            "1",
            "<author><name>Hudson</name><book><title>Rent</title>\
             <publisher><name>Baker</name></publisher></book></author>",
        )
        .unwrap()
    {
        Reply::Applied { kind, detail, .. } => {
            assert_eq!(kind, xmorph_server::proto::APPLIED_INSERTED);
            assert!(!detail.is_empty(), "detail carries the new root's path");
        }
        other => panic!("{other:?}"),
    }
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { xml, .. } => assert!(xml.contains("<name>Hudson</name>")),
        other => panic!("{other:?}"),
    }

    // DELETE: drop the inserted subtree again; detail is the count.
    let inserted = match client
        .insert("library", "1", "<author><name>Doomed</name></author>")
        .unwrap()
    {
        Reply::Applied { detail, .. } => detail,
        other => panic!("{other:?}"),
    };
    match client.delete("library", &inserted).unwrap() {
        Reply::Applied { kind, detail, .. } => {
            assert_eq!(kind, xmorph_server::proto::APPLIED_DELETED);
            assert_eq!(detail, "2", "author + name vertices removed");
        }
        other => panic!("{other:?}"),
    }

    // A mutation failure is a typed error and the connection survives.
    match client.update("library", "9.9.9", "nope").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Mutate),
        other => panic!("{other:?}"),
    }
    match client.delete("library", "not-a-path").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("{other:?}"),
    }
    match client.update("nope", "1.1", "x").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownStore),
        other => panic!("{other:?}"),
    }

    let metrics = handle.shutdown().unwrap();
    assert_eq!(metrics.writes_ok, 4);
    assert_eq!(metrics.writes_failed, 2, "bad path + unknown store");
}

#[test]
fn read_only_server_refuses_writes_but_serves_reads() {
    let (handle, _reference) = serve(ServerConfig {
        read_only: true,
        ..Default::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.update("library", "1.1.1", "x").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("{other:?}"),
    }
    match client.insert("library", "1", "<author/>").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("{other:?}"),
    }
    match client.delete("library", "1.1").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("{other:?}"),
    }
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { .. } => {}
        other => panic!("{other:?}"),
    }
    let metrics = handle.shutdown().unwrap();
    assert_eq!(metrics.writes_failed, 3);
    assert_eq!(metrics.writes_ok, 0);
}

#[test]
fn reader_connections_see_consistent_states_during_writes() {
    let (handle, reference) = serve(ServerConfig::default());
    let addr = handle.addr();
    let name_dewey = {
        let doc = reference.doc();
        let t = doc
            .types()
            .lookup(&[
                "library".to_string(),
                "author".to_string(),
                "name".to_string(),
            ])
            .expect("author name type");
        doc.scan_type(t).remove(0).0.to_string()
    };
    // Every reachable state's render: prefix k has the name "W{k}"
    // (k = 0 is the unmutated document).
    let mut expected = std::collections::HashSet::new();
    expected.insert(
        reference
            .query(&QueryRequest::builder(GOOD_GUARD).build())
            .unwrap()
            .xml,
    );
    let dewey: xmorph_core::Dewey = name_dewey.parse().unwrap();
    for k in 1..=8 {
        reference
            .mutate(&xmorph_core::Mutation::UpdateText {
                target: dewey.clone(),
                text: format!("W{k}"),
            })
            .unwrap();
        expected.insert(
            reference
                .query(&QueryRequest::builder(GOOD_GUARD).build())
                .unwrap()
                .xml,
        );
    }
    std::thread::scope(|scope| {
        let expected = &expected;
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..20 {
                    match client
                        .query("library", GOOD_GUARD, QueryOpts::default())
                        .unwrap()
                    {
                        Reply::Result { xml, .. } => assert!(
                            expected.contains(&xml),
                            "reader observed a state matching no write prefix: {xml}"
                        ),
                        Reply::Busy(_) => {}
                        other => panic!("{other:?}"),
                    }
                }
            });
        }
        scope.spawn(move || {
            let mut writer = Client::connect(addr).unwrap();
            for k in 1..=8 {
                match writer
                    .update("library", &name_dewey, &format!("W{k}"))
                    .unwrap()
                {
                    Reply::Applied { .. } => {}
                    Reply::Busy(_) => {}
                    other => panic!("{other:?}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    });
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_drains_and_reports_metrics() {
    let (handle, _reference) = serve(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query("library", GOOD_GUARD, QueryOpts::default())
        .unwrap()
    {
        Reply::Result { .. } => {}
        other => panic!("{other:?}"),
    }
    let metrics = handle.shutdown().unwrap();
    assert_eq!(metrics.queries_ok, 1);
    assert_eq!(metrics.sessions_admitted, 1);
}
