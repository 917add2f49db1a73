//! Regression tests for the blocking transport: malformed requests must
//! come back as typed errors on a connection that keeps working, and
//! shutdown must drain in-flight waited submissions — flushing their
//! terminal results — before the server exits.

use eod_core::sizes::ProblemSize;
use eod_core::spec::{ExecConfig, JobSpec, Priority, NATIVE_DEVICE};
use eod_harness::RunnerConfig;
use eod_serve::protocol::{codes, decode, encode, write_line, Request, Response};
use eod_serve::{ServeConfig, Server, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn smoke_serve(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 64,
        cache_capacity: 64,
        runner: RunnerConfig::smoke(),
    }
}

fn start_server(cfg: ServeConfig) -> (Arc<Service>, SocketAddr, std::thread::JoinHandle<()>) {
    let service = Service::start(cfg);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (service, addr, handle)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(decode::<Response>(&line).expect("parseable response")),
        Err(e) => panic!("read: {e}"),
    }
}

#[test]
fn bad_lines_yield_typed_errors_and_the_connection_keeps_serving() {
    let (_service, addr, handle) = start_server(smoke_serve(1));
    let (mut out, mut reader) = connect(addr);

    // Three bad lines pipelined ahead of a good request: not JSON,
    // JSON of the wrong shape, and invalid UTF-8 bytes.
    out.write_all(b"definitely not json\n").unwrap();
    out.write_all(b"{\"Frobnicate\":{\"x\":1}}\n").unwrap();
    out.write_all(b"{\"Stats\"\xff\xfe:null}\n").unwrap();
    write_line(&mut out, encode(&Request::Stats)).unwrap();

    for bad in 0..3 {
        let resp = read_response(&mut reader).expect("error response");
        let Response::Error { code, .. } = resp else {
            panic!("bad line {bad} answered {resp:?}");
        };
        assert_eq!(code, codes::BAD_REQUEST);
    }
    let resp = read_response(&mut reader).expect("stats response");
    assert!(
        matches!(resp, Response::Stats { .. }),
        "the pipelined good request still works after bad ones: {resp:?}"
    );

    // Clean shutdown via a second connection.
    let (mut out2, mut reader2) = connect(addr);
    write_line(&mut out2, encode(&Request::Shutdown)).unwrap();
    assert!(matches!(read_response(&mut reader2), Some(Response::Bye)));
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_inflight_waiters_and_flushes_their_results() {
    let (_service, addr, handle) = start_server(smoke_serve(1));

    // Client A: a waited submission that holds the only worker for a
    // couple of wall-clock seconds (native backend, host-clock floor).
    let slow = JobSpec {
        benchmark: "crc".to_string(),
        size: ProblemSize::Tiny,
        device: NATIVE_DEVICE.to_string(),
        config: ExecConfig {
            samples: 1,
            min_loop: Duration::from_secs(2),
            max_iters_per_sample: usize::MAX / 2,
            verify: false,
            real_execution: true,
            energy_all_devices: false,
            seed: 11,
            timeout: None,
        },
    };
    let (mut a_out, mut a_reader) = connect(addr);
    write_line(
        &mut a_out,
        encode(&Request::Submit {
            spec: slow,
            priority: Priority::Normal,
            wait: true,
        }),
    )
    .unwrap();
    let resp = read_response(&mut a_reader).expect("accepted");
    assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");

    // Client B: shutdown while A's job is still in flight.
    let (mut b_out, mut b_reader) = connect(addr);
    write_line(&mut b_out, encode(&Request::Shutdown)).unwrap();
    assert!(matches!(read_response(&mut b_reader), Some(Response::Bye)));

    // A's connection must stay open until the job finishes, stream its
    // transitions, and flush the terminal Result before closing.
    let mut saw_done = false;
    loop {
        match read_response(&mut a_reader) {
            None => break,
            Some(Response::Status { .. }) => {}
            Some(Response::Result { state, group, .. }) => {
                assert_eq!(state, "done", "the in-flight job ran to completion");
                assert!(group.is_some());
                saw_done = true;
            }
            Some(other) => panic!("unexpected line {other:?}"),
        }
    }
    assert!(
        saw_done,
        "shutdown closed the waiter before flushing its Result"
    );
    handle.join().unwrap();
}
