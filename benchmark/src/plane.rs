//! The serving plane as a user deploys it, started in-process: a
//! [`Service`] (local worker pool, or fleet mode with in-process workers
//! on [`LocalWire`]) behind a [`NetServer`] on an ephemeral loopback port.
//! Everything but the worker count is the product default.

use eod_core::fleet::WorkerCapabilities;
use eod_fleet::{Coordinator, FleetConfig, LocalWire, Worker, WorkerExit};
use eod_net::NetConfig;
use eod_serve::{Client, NetServer, Placement, ServeConfig, Service};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running service with its TCP front end.
pub struct ServePlane {
    /// The service behind the listener.
    pub service: Arc<Service>,
    net: NetServer,
    /// `host:port` clients connect to.
    pub addr: String,
    /// Fleet mode only.
    pub coordinator: Option<Arc<Coordinator>>,
    fleet_workers: Vec<JoinHandle<WorkerExit>>,
}

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

impl ServePlane {
    fn listen(service: Arc<Service>) -> (NetServer, String) {
        let net = NetServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
            .expect("bind an ephemeral loopback port");
        let addr = net.local_addr().to_string();
        (net, addr)
    }

    /// Local mode: `workers` pool threads execute jobs in-process.
    pub fn local(workers: usize) -> Self {
        let service = Service::start(serve_config(workers));
        let (net, addr) = Self::listen(Arc::clone(&service));
        ServePlane {
            service,
            net,
            addr,
            coordinator: None,
            fleet_workers: Vec::new(),
        }
    }

    /// Fleet mode under predictive placement: `workers` one-slot workers
    /// serving every device, each on its own [`LocalWire`]. Returns once
    /// all of them have registered.
    pub fn fleet(workers: usize) -> Self {
        let (service, coordinator) = Service::start_fleet_placed(
            serve_config(workers),
            FleetConfig::default(),
            Placement::Predictive,
        );
        let fleet_workers = (0..workers)
            .map(|i| {
                let (coord_end, worker_end) = LocalWire::pair();
                Coordinator::attach(&coordinator, coord_end);
                let worker = Worker::new(WorkerCapabilities {
                    name: format!("bench-worker-{i}"),
                    slots: 1,
                    devices: Vec::new(),
                });
                std::thread::Builder::new()
                    .name(format!("bench-fleet-worker-{i}"))
                    .spawn(move || worker.run(worker_end).expect("fleet worker wire"))
                    .expect("spawn fleet worker")
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while coordinator.live_workers() < workers {
            assert!(
                Instant::now() < deadline,
                "fleet workers failed to register"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let (net, addr) = Self::listen(Arc::clone(&service));
        ServePlane {
            service,
            net,
            addr,
            coordinator: Some(coordinator),
            fleet_workers,
        }
    }

    /// Grants the coordinator has issued so far (fleet mode).
    pub fn fleet_dispatches(&self) -> f64 {
        let text = self
            .coordinator
            .as_ref()
            .expect("fleet mode")
            .metrics_text();
        prometheus_total(&text, "eod_fleet_dispatches_total")
    }

    /// A blocking client connected to this plane.
    pub fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the in-process server")
    }

    /// `n` blocking clients, spread evenly over the shards (see
    /// [`ServePlane::balanced`]).
    pub fn clients(&self, n: usize) -> Vec<Client> {
        self.balanced(n, |_| self.client())
    }

    /// Open `n` connections spread evenly over the reactor's shards.
    ///
    /// `SO_REUSEPORT` assigns a connection to a shard by a hash of its
    /// address pair, so whether `T` connections share one event loop or
    /// get one each is a coin flip per run — and the two cases differ by
    /// 2× in latency. A connection that lands on a shard already holding
    /// its share is closed and retried (the ephemeral port, hence the
    /// hash, changes). Must be called while no other connection is being
    /// opened or closed.
    pub fn balanced<C>(&self, n: usize, connect: impl Fn(&str) -> C) -> Vec<C> {
        let shards = self.net.shard_metrics();
        let open = || -> Vec<u64> { shards.iter().map(|m| m.connections.get() as u64).collect() };
        let settle = |want: &[u64]| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while open() != want {
                assert!(
                    Instant::now() < deadline,
                    "shard connection gauges never settled"
                );
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        let share = n.div_ceil(shards.len()) as u64;
        let base = open();
        let mut held = base.clone();
        let mut kept = Vec::with_capacity(n);
        while kept.len() < n {
            let conn = connect(&self.addr);
            // Wait for the accept to show on exactly one shard's gauge.
            let deadline = Instant::now() + Duration::from_secs(10);
            let shard = loop {
                let now = open();
                if let Some(i) = (0..now.len()).find(|&i| now[i] > held[i]) {
                    break i;
                }
                assert!(
                    Instant::now() < deadline,
                    "accepted connection never counted"
                );
                std::thread::sleep(Duration::from_micros(100));
            };
            if held[shard] - base[shard] < share {
                held[shard] += 1;
                kept.push(conn);
            } else {
                drop(conn);
                settle(&held);
            }
        }
        kept
    }

    /// Graceful stop: drain the service (and fleet), flush and close every
    /// shard, join every thread this plane started.
    pub fn shutdown(self) {
        self.net.shutdown();
        self.net.wait().expect("reactor shards exit cleanly");
        for h in self.fleet_workers {
            let exit = h.join().expect("fleet worker thread");
            assert_ne!(exit, WorkerExit::Killed);
        }
    }
}

/// Sum of every series of counter `name` in a Prometheus exposition.
pub fn prometheus_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
