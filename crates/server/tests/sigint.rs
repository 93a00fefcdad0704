//! Ctrl-C shutdown. A test binary of its own: the SIGINT flag is
//! process-global, so raising it here cannot stop another test's
//! server.
#![cfg(unix)]

use secsim_bench::client;
use secsim_server::{install_sigint_handler, JobServer, ServerConfig};
use secsim_stats::Json;
use std::sync::mpsc;
use std::time::Duration;

extern "C" {
    fn raise(sig: i32) -> i32;
}

const SIGINT: i32 = 2;

/// A SIGINT cannot interrupt the blocking accept (std retries `EINTR`),
/// so the installed handler's watcher thread must turn it into a
/// shutdown: `serve()` returns promptly and flushes its final status.
#[test]
fn sigint_stops_a_blocked_accept_loop_and_flushes_status() {
    let dir = std::env::temp_dir().join(format!("secsim-serve-sigint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    install_sigint_handler();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir.join("store"),
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.serve());
    });
    // The server is up and blocked in accept once it answers.
    client::status(&addr).expect("status before SIGINT");

    assert_eq!(unsafe { raise(SIGINT) }, 0, "raise(SIGINT)");
    let status = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve() must return within 2 s of SIGINT")
        .expect("serve returns");
    assert_eq!(status.get("accepting").and_then(Json::as_bool), Some(false));
    let flushed = std::fs::read_to_string(dir.join("server_status.json"))
        .expect("final status flushed next to the store");
    let flushed = Json::parse(&flushed).expect("flushed status parses");
    assert_eq!(flushed.get("event").and_then(Json::as_str), Some("status"));
    assert_eq!(flushed.get("accepting").and_then(Json::as_bool), Some(false));
    let _ = std::fs::remove_dir_all(&dir);
}
