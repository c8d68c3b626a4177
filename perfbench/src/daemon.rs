//! The real `upmem-nw serve` binary as a child process, and a client
//! connection to it whose reader and writer are separate socket handles.
//!
//! The reader runs on its own thread and timestamps every reply as it
//! arrives. Its socket has a read timeout, so it notices a stop request
//! and a silent daemon never hangs the benchmark.

use std::io::{self, BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;

use crate::workload::{SERVE_BAND, SERVE_DPUS, SERVE_RANKS};

/// How long a daemon may take to start listening.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a drained daemon may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon flags that differ between workloads.
#[derive(Debug, Clone, Default)]
pub struct DaemonOpts {
    /// `--cache` capacity (`None` keeps the daemon default).
    pub cache: Option<usize>,
    /// `--state-dir` (durability on when set; fsync stays off).
    pub state_dir: Option<PathBuf>,
    /// `--compact-every`.
    pub compact_every: Option<usize>,
}

/// A running daemon. Dropping it kills the process if it still runs.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    report: PathBuf,
    spawned: Instant,
}

impl Daemon {
    /// Spawn `bin serve` with a socket and report file named after `tag`
    /// in the current directory.
    pub fn spawn(bin: &Path, opts: &DaemonOpts, tag: &str) -> io::Result<Daemon> {
        let socket = PathBuf::from(format!("{tag}.sock"));
        let report = PathBuf::from(format!("{tag}.report.json"));
        let _ = std::fs::remove_file(&report);
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--json")
            .arg(&report)
            .args(["--ranks", &SERVE_RANKS.to_string()])
            .args(["--dpus", &SERVE_DPUS.to_string()])
            .args(["--band", &SERVE_BAND.to_string()]);
        if let Some(c) = opts.cache {
            cmd.args(["--cache", &c.to_string()]);
        }
        if let Some(d) = &opts.state_dir {
            cmd.arg("--state-dir").arg(d);
        }
        if let Some(k) = opts.compact_every {
            cmd.args(["--compact-every", &k.to_string()]);
        }
        let spawned = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Daemon {
            child,
            socket,
            report,
            spawned,
        })
    }

    /// When the process was spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Connect, retrying while the daemon binds its socket.
    pub fn connect(&mut self) -> io::Result<Conn> {
        let give_up = Instant::now() + LISTEN_TIMEOUT;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Conn::new(s),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("daemon exited early: {status}")));
                    }
                    if Instant::now() >= give_up {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Peak resident memory (`VmHWM`) in MB, while the process lives.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Wait for the drained daemon to exit and parse the report it wrote.
    pub fn finish(mut self) -> io::Result<(ExitStatus, Json)> {
        let give_up = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            if let Some(s) = self.child.try_wait()? {
                break s;
            }
            if Instant::now() >= give_up {
                return Err(io::Error::other("daemon did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let text = std::fs::read_to_string(&self.report)?;
        let report = Json::parse(&text).map_err(io::Error::other)?;
        Ok((status, report))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reply line and when the reader saw it.
#[derive(Debug)]
pub struct Reply {
    /// Arrival time.
    pub at: Instant,
    /// The parsed line.
    pub v: Json,
}

impl Reply {
    /// The `type` field.
    pub fn kind(&self) -> &str {
        self.v.get("type").and_then(Json::as_str).unwrap_or("")
    }

    /// The `id` field.
    pub fn id(&self) -> Option<&str> {
        self.v.get("id").and_then(Json::as_str)
    }
}

/// The daemon closed the connection and every reply was taken.
#[derive(Debug)]
pub struct Closed;

/// A connection: the writer is this handle, the reader a second handle
/// on its own thread.
pub struct Conn {
    writer: UnixStream,
    rx: Receiver<Reply>,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<usize>>,
}

impl Conn {
    fn new(writer: UnixStream) -> io::Result<Conn> {
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(Duration::from_millis(100)))?;
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(read_half);
            let mut buf = Vec::new();
            let mut bad = 0usize;
            loop {
                match r.read_until(b'\n', &mut buf) {
                    Ok(0) => return bad,
                    Ok(_) if buf.last() == Some(&b'\n') => {
                        let at = Instant::now();
                        let text = String::from_utf8_lossy(&buf);
                        match Json::parse(text.trim()) {
                            Ok(v) => {
                                if tx.send(Reply { at, v }).is_err() {
                                    return bad;
                                }
                            }
                            Err(_) => bad += 1,
                        }
                        buf.clear();
                    }
                    Ok(_) => return bad, // EOF inside a line
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if flag.load(Ordering::SeqCst) {
                            return bad;
                        }
                    }
                    Err(_) => return bad,
                }
            }
        });
        Ok(Conn {
            writer,
            rx,
            stop,
            reader: Some(reader),
        })
    }

    /// Send one line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// The next reply, waiting at most `wait`. `Err(Closed)` once the reader
    /// has ended (EOF) and every reply was taken.
    pub fn recv(&self, wait: Duration) -> Result<Option<Reply>, Closed> {
        match self.rx.recv_timeout(wait) {
            Ok(r) => Ok(Some(r)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Closed),
        }
    }

    /// Stop the reader and join it; returns how many unparseable lines it
    /// saw.
    pub fn close(mut self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        self.reader
            .take()
            .map_or(0, |h| h.join().expect("reply reader panicked"))
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.reader.take() {
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
            let _ = h.join();
        }
    }
}
