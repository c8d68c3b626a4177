//! A small blocking NDJSON client for the daemon's unix socket — what the
//! integration tests and the crash harness use to talk to a running
//! service.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A blocking client over one connection.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connect to a listening daemon.
    pub fn connect(path: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Connect, retrying while the daemon is still binding its socket.
    pub fn connect_retry(path: &Path, timeout: Duration) -> io::Result<Client> {
        let give_up = Instant::now() + timeout;
        loop {
            match Self::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Send one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Read the next response line; `None` on EOF (the daemon drained).
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return Json::parse(trimmed)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        }
    }

    /// A second handle over the same connection, so one thread can send
    /// while another receives.
    pub fn try_split(&self) -> io::Result<Client> {
        let w = self.writer.try_clone()?;
        let r = BufReader::new(self.writer.try_clone()?);
        Ok(Client {
            writer: w,
            reader: r,
        })
    }
}
