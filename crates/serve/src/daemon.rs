//! The process shell every daemon runs its tier in: `rck_served`,
//! `rck_gate` and `rck_shardd` keep only their flags and their tier.
//!
//! * [`on_signal`] installs the SIGINT/SIGTERM handler and starts a
//!   watcher that calls the daemon's stop action once — a drain for the
//!   master and the gate (inflight work finishes, peers get an orderly
//!   Shutdown), an abort for the shard frontend, which has no drain. The
//!   returned [`Shell`] lets the watcher go once `run()` is back and
//!   writes the tier's final registry to stderr; stdout keeps the run's
//!   own report.
//! * [`serve_metrics`] opens the `--metrics-addr` listener: the tier's
//!   registry plus the global kernel/farm one, whose families are
//!   registered first so every series reads zero from the first scrape.
//!   A listener that cannot bind fails the daemon.
//!
//! The handler does the only thing that is async-signal-safe here — a
//! relaxed atomic store, installed through the raw C `signal` entry point
//! so the workspace stays dependency-free. Everything else happens on
//! the watcher thread that polls the flag.

use rck_obs::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// POSIX signal number for Ctrl-C.
const SIGINT: i32 = 2;
/// POSIX signal number for a polite kill.
const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_raw_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// The daemon's name, as its lines are prefixed: the executable's.
fn name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let file = std::path::Path::new(&argv0).file_name();
    file.map_or(argv0.clone(), |f| f.to_string_lossy().into_owned())
}

/// A daemon's run between its tier's `run()` and exit: the signal
/// watcher and the tier registry the final dump renders.
pub struct Shell {
    registry: Arc<Registry>,
    released: Arc<AtomicBool>,
    watcher: JoinHandle<()>,
}

impl Shell {
    /// The run is over, however it ended: let the watcher go and write
    /// the final registry dump to stderr.
    pub fn finish(self) {
        self.released.store(true, Ordering::Relaxed);
        let _ = self.watcher.join();
        eprintln!("{}: final metrics\n{}", name(), self.registry.render());
    }
}

/// Install the SIGINT/SIGTERM handler and call `stop` when either
/// arrives before the returned [`Shell`] is finished. Call once, before
/// the tier's `run()`. Where installation fails the process keeps the
/// default die-on-signal behaviour.
pub fn on_signal(registry: Arc<Registry>, stop: impl FnOnce() + Send + 'static) -> Shell {
    // SAFETY: `on_raw_signal` only performs an atomic store, which is
    // async-signal-safe; the handler address stays valid for the life
    // of the process because it is a plain fn item.
    unsafe {
        signal(SIGINT, on_raw_signal as *const () as usize);
        signal(SIGTERM, on_raw_signal as *const () as usize);
    }
    watch(registry, stop)
}

fn watch(registry: Arc<Registry>, stop: impl FnOnce() + Send + 'static) -> Shell {
    let released = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&released);
    let watcher = std::thread::spawn(move || {
        while !done.load(Ordering::Relaxed) {
            if SHUTDOWN.load(Ordering::Relaxed) {
                eprintln!("{}: shutdown requested; stopping the run", name());
                stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    Shell {
        registry,
        released,
        watcher,
    }
}

/// Serve one-shot Prometheus dumps of `tier` plus the global kernel/farm
/// registry on `addr`, if one was given, and print where.
pub fn serve_metrics(addr: Option<SocketAddr>, tier: &Arc<Registry>) -> Result<(), String> {
    let Some(addr) = addr else {
        return Ok(());
    };
    rck_tmalign::stages::stage_counters();
    rck_skel::metrics::farm_metrics();
    let sources = vec![Arc::clone(tier), Arc::clone(Registry::global())];
    let (bound, _listener) = rck_obs::spawn_dump_server(addr, sources)
        .map_err(|e| format!("metrics listener on {addr}: {e}"))?;
    println!("{}: metrics on http://{bound}/metrics", name());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// One test owns the process-wide flag, so no other test races it.
    #[test]
    fn a_signal_stops_the_run_once_and_a_finished_run_never() {
        let (tx, rx) = mpsc::channel();
        let quiet = tx.clone();
        watch(Registry::new(), move || quiet.send("early").unwrap()).finish();
        let shell = watch(Registry::new(), move || tx.send("stopped").unwrap());
        SHUTDOWN.store(true, Ordering::Relaxed);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("stopped"));
        shell.finish();
        SHUTDOWN.store(false, Ordering::Relaxed);
        assert!(rx.try_recv().is_err(), "stop ran twice or after finish");
    }

    #[test]
    fn the_metrics_listener_serves_tier_and_global_and_fails_on_a_taken_port() {
        use std::io::{Read, Write};
        let tier = Registry::new();
        tier.counter("rck_test_daemon_tier_total", "h").inc();
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let err = serve_metrics(Some(addr), &tier).unwrap_err();
        assert!(
            err.starts_with(&format!("metrics listener on {addr}: ")),
            "{err}"
        );
        drop(taken);
        serve_metrics(Some(addr), &tier).unwrap();
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.contains("rck_test_daemon_tier_total 1"), "{body}");
        assert!(body.contains("rck_kernel_alignments_total"), "{body}");
        assert!(body.contains("rck_farm_rounds_total"), "{body}");
        assert!(serve_metrics(None, &tier).is_ok());
    }
}
