//! The `ledgerd` subprocess: spawn, hard-kill, respawn, measure.

use crate::gen::LEDGERD_SEED;
use ledgerdb_server::{RemoteConfig, RemoteLedger};
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned `ledgerd` may take to print its listen address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The deployment flags the benchmark passes; everything else is the
/// binary's default.
pub fn ledgerd_flags(dir: &Path) -> Vec<String> {
    vec![
        "--dir".into(),
        dir.display().to_string(),
        "--bind".into(),
        "127.0.0.1:0".into(),
        "--seed".into(),
        LEDGERD_SEED.into(),
    ]
}

/// A running `ledgerd`. Dropping it kills the process and waits for it.
pub struct Daemon {
    bin: PathBuf,
    dir: PathBuf,
    log: PathBuf,
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Start `ledgerd` on `dir` and wait for its listen address.
    /// Its stdout goes to `log` (polled for the address), stderr to
    /// `log` with an `.err` extension.
    pub fn spawn(bin: &Path, dir: &Path, log: &Path) -> io::Result<Daemon> {
        let child = Command::new(bin)
            .args(ledgerd_flags(dir))
            .stdin(Stdio::null())
            .stdout(File::create(log)?)
            .stderr(File::create(log.with_extension("err"))?)
            .spawn()?;
        let mut daemon = Daemon {
            bin: bin.to_path_buf(),
            dir: dir.to_path_buf(),
            log: log.to_path_buf(),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = daemon.wait_listening()?;
        Ok(daemon)
    }

    fn wait_listening(&mut self) -> io::Result<SocketAddr> {
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(rest) = text
                .lines()
                .find_map(|l| l.strip_prefix("ledgerd: listening on "))
            {
                return rest
                    .trim()
                    .parse()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")));
            }
            if let Some(status) = self.child.try_wait()? {
                let err =
                    std::fs::read_to_string(self.log.with_extension("err")).unwrap_or_default();
                return Err(io::Error::other(format!(
                    "ledgerd exited with {status}: {err}"
                )));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "ledgerd did not start",
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connect a fresh distrusting client (handshake included).
    pub fn connect(&self) -> Result<RemoteLedger, String> {
        let config = RemoteConfig {
            request_timeout: Duration::from_secs(60),
            ..RemoteConfig::default()
        };
        RemoteLedger::connect_with(self.addr, config).map_err(|e| format!("connect: {e}"))
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// `SIGKILL` and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `SIGKILL`, respawn on the same directory, and complete a client
    /// handshake. Returns the new daemon, a connected client, and the
    /// seconds from the kill to the finished handshake.
    pub fn restart(mut self) -> Result<(Daemon, RemoteLedger, f64), String> {
        let started = Instant::now();
        self.kill();
        let next =
            Daemon::spawn(&self.bin, &self.dir, &self.log).map_err(|e| format!("respawn: {e}"))?;
        let client = next.connect()?;
        Ok((next, client, started.elapsed().as_secs_f64()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
