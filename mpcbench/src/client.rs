//! The out-of-process side: spawn `mpcskew serve`, speak the line protocol
//! to it over its stdio or a TCP socket, and read its resource use from
//! `/proc`. Nothing here links against the program under test.

use crate::gen::Digest;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The first line of a reply.
#[derive(Debug, PartialEq)]
pub enum Status {
    /// `ok answers=N ...` or `ok groups=N ...`: a query ran.
    Query {
        aggregate: bool,
        count: u64,
        cache: String,
        load_bits: u64,
        predicted_bits: f64,
    },
    /// Any other `ok ...` line (LOAD, APPEND, STATS, SHUTDOWN), verbatim
    /// after the `ok `.
    Ok(String),
    /// `err <class> ...`.
    Err { class: String, message: String },
}

/// The value of `key=` among whitespace-separated fields.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

pub fn parse_status(line: &str) -> Result<Status, String> {
    let bad = || format!("malformed status line `{line}`");
    if let Some(rest) = line.strip_prefix("err ") {
        let (class, message) = rest.split_once(' ').unwrap_or((rest, ""));
        return Ok(Status::Err {
            class: class.to_string(),
            message: message.to_string(),
        });
    }
    let rest = line.strip_prefix("ok ").ok_or_else(bad)?;
    let (aggregate, count) = match (field(rest, "answers"), field(rest, "groups")) {
        (Some(n), None) => (false, n),
        (None, Some(n)) => (true, n),
        _ => return Ok(Status::Ok(rest.to_string())),
    };
    let number = |key| field(rest, key).ok_or_else(bad);
    Ok(Status::Query {
        aggregate,
        count: count.parse().map_err(|_| bad())?,
        cache: number("cache")?.to_string(),
        load_bits: number("load")?.parse().map_err(|_| bad())?,
        predicted_bits: number("predicted")?.parse().map_err(|_| bad())?,
    })
}

/// One complete reply: its status line and what followed up to `end`.
#[derive(Debug)]
pub struct Reply {
    pub status: Status,
    /// Lines after the status line, the closing `end` not counted.
    pub row_lines: u64,
    /// Order-independent checksum of those lines.
    pub row_checksum: u64,
    /// Bytes and lines of the whole reply as read off the wire.
    pub bytes: u64,
    pub lines: u64,
    /// The row lines themselves, kept only when the caller asked.
    pub kept: Vec<String>,
}

/// Checksum of one row line; [`Reply::row_checksum`] is their wrapping sum.
pub fn line_checksum(line: &str) -> u64 {
    let mut d = Digest::new();
    d.bytes(line.as_bytes());
    d.finish()
}

/// One protocol connection.
pub struct Conn {
    writer: Box<dyn Write + Send>,
    reader: Box<dyn BufRead + Send>,
    buf: String,
}

impl Conn {
    /// A connection that reads `text` and discards what is sent: in-process
    /// reply lines go through the same framing as a server's.
    pub fn over(text: String) -> Conn {
        Conn::new(std::io::sink(), std::io::Cursor::new(text.into_bytes()))
    }

    fn new(writer: impl Write + Send + 'static, reader: impl BufRead + Send + 'static) -> Conn {
        Conn {
            writer: Box::new(writer),
            reader: Box::new(reader),
            buf: String::new(),
        }
    }

    /// Send one command line in a single write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.buf.trim_end_matches('\n')),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Read one reply. `framed` says the command's success reply runs up
    /// to an `end` line (`QUERY ... rows`, `STATS`); an `err` reply is one
    /// line either way.
    pub fn read_reply(&mut self, framed: bool, keep: bool) -> Result<Reply, String> {
        let first = self.read_line()?;
        let mut reply = Reply {
            status: parse_status(first)?,
            row_lines: 0,
            row_checksum: 0,
            bytes: first.len() as u64 + 1,
            lines: 1,
            kept: Vec::new(),
        };
        if !framed || matches!(reply.status, Status::Err { .. }) {
            return Ok(reply);
        }
        loop {
            let line = self.read_line()?;
            reply.bytes += line.len() as u64 + 1;
            reply.lines += 1;
            if line == "end" {
                return Ok(reply);
            }
            reply.row_lines += 1;
            reply.row_checksum = reply.row_checksum.wrapping_add(line_checksum(line));
            if keep {
                reply.kept.push(line.to_string());
            }
        }
    }

    pub fn roundtrip(&mut self, line: &str, framed: bool) -> Result<Reply, String> {
        self.send(line).map_err(|e| format!("write failed: {e}"))?;
        self.read_reply(framed, false)
    }
}

/// Plan-cache counters and sketch size from a `STATS` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerStats {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub sketch_bytes: u64,
}

pub fn parse_stats(status: &str, rows: &[String]) -> Result<ServerStats, String> {
    let num = |line: &str, key: &str| -> Result<u64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("STATS reply lacks {key}= in `{line}`"))
    };
    let sketch = rows.iter().find(|l| l.starts_with("sketch "));
    Ok(ServerStats {
        hits: num(status, "hits")?,
        misses: num(status, "misses")?,
        invalidations: num(status, "invalidations")?,
        evictions: num(status, "evictions")?,
        sketch_bytes: sketch.map_or(Ok(0), |l| num(l, "bytes"))?,
    })
}

/// A running `mpcskew serve` child. A watchdog thread kills it when it
/// outlives `limit`, which turns a hung server into read errors on every
/// connection instead of a hung benchmark.
pub struct Server {
    child: Arc<Mutex<Child>>,
    pid: u32,
    watchdog: Option<(Sender<()>, JoinHandle<()>)>,
    /// `Some` for a TCP server: where it listens.
    addr: Option<String>,
    stdio: Option<Conn>,
}

impl Server {
    /// Spawn `<bin> serve --p 64 --threads 1 --domain <domain>` with sketch
    /// statistics (the serve default), over stdio or listening on a free
    /// loopback port.
    pub fn spawn(bin: &Path, domain: u64, tcp: bool, limit: Duration) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--p", &crate::workloads::P.to_string()])
            .args(["--threads", "1", "--domain", &domain.to_string()])
            .env_remove("MPCSKEW_THREADS")
            .env_remove("MPCSKEW_FAILPOINTS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if tcp {
            cmd.args(["--listen", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdio = Conn::new(stdin, BufReader::with_capacity(1 << 16, stdout));
        let child = Arc::new(Mutex::new(child));
        let (tx, rx) = channel::<()>();
        let guarded = Arc::clone(&child);
        let handle = std::thread::spawn(move || {
            if rx.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("mpcbench: server exceeded {limit:?}; killing it");
                let _ = guarded.lock().expect("watchdog lock").kill();
            }
        });
        let mut server = Server {
            child,
            pid,
            watchdog: Some((tx, handle)),
            addr: None,
            stdio: None,
        };
        if tcp {
            let banner = stdio.read_line()?.to_string();
            let addr = banner
                .strip_prefix("listening on ")
                .ok_or_else(|| format!("unexpected banner `{banner}`"))?;
            server.addr = Some(addr.to_string());
        }
        server.stdio = Some(stdio);
        Ok(server)
    }

    /// The connection over the child's stdin and stdout — the session of
    /// a stdio server. A TCP server keeps it, unused, so its pipes stay
    /// open for as long as it runs.
    pub fn take_stdio(&mut self) -> Conn {
        self.stdio.take().expect("stdio connection present")
    }

    pub fn probe(&self) -> Probe {
        Probe { pid: self.pid }
    }

    /// A new TCP connection with Nagle's algorithm off on the client side.
    pub fn connect(&self) -> Result<Conn, String> {
        let addr = self.addr.as_ref().expect("server listens on TCP");
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn::new(stream, BufReader::with_capacity(1 << 16, reader)))
    }

    /// Stop the server: `SHUTDOWN` on `conn` — the only session still
    /// open — then reap the child and stop the watchdog.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let bye = conn.roundtrip("SHUTDOWN", false);
        let status = self
            .child
            .lock()
            .expect("child lock")
            .wait()
            .map_err(|e| format!("wait failed: {e}"))?;
        self.stop_watchdog();
        bye?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }

    fn stop_watchdog(&mut self) {
        if let Some((tx, handle)) = self.watchdog.take() {
            drop(tx);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// The error path: whatever state the round ended in, leave no child
    /// and no watchdog behind.
    fn drop(&mut self) {
        if self.watchdog.is_some() {
            if let Ok(mut child) = self.child.lock() {
                let _ = child.kill();
                let _ = child.wait();
            }
            self.stop_watchdog();
        }
    }
}

/// Reads the server's resource use from `/proc`; a plain pid, so client
/// threads can carry a copy.
#[derive(Clone, Copy)]
pub struct Probe {
    pid: u32,
}

impl Probe {
    fn file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.pid);
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// User plus system CPU time of the server so far, all threads, in
    /// milliseconds (`/proc/<pid>/stat` counts in 10 ms ticks).
    pub fn cpu_ms(&self) -> Result<f64, String> {
        parse_cpu_ticks(&self.file("stat")?).map(|ticks| ticks as f64 * 10.0)
    }

    /// Peak resident set size in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        parse_vm_hwm_kib(&self.file("status")?).map(|kib| kib as f64 / 1024.0)
    }
}

/// utime + stime, fields 14 and 15 of `/proc/<pid>/stat`. The command name
/// in field 2 may contain spaces, so count from its closing parenthesis.
pub fn parse_cpu_ticks(stat: &str) -> Result<u64, String> {
    let after = stat.rsplit_once(')').ok_or("no `)` in stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "short stat line".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no VmHWM in status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_over(text: &str) -> Conn {
        Conn::over(text.to_string())
    }

    #[test]
    fn parses_query_status_lines() {
        let s =
            parse_status("ok answers=16384 algo=hc cache=hit rounds=1 load=56800 predicted=16384");
        assert_eq!(
            s.unwrap(),
            Status::Query {
                aggregate: false,
                count: 16384,
                cache: "hit".to_string(),
                load_bits: 56800,
                predicted_bits: 16384.0,
            }
        );
        let s = parse_status(
            "ok groups=8 algo=skew-join cache=invalidated rounds=1 load=7 predicted=9",
        );
        assert!(matches!(
            s.unwrap(),
            Status::Query { aggregate: true, count: 8, ref cache, .. } if cache == "invalidated"
        ));
    }

    #[test]
    fn parses_other_ok_and_err_lines() {
        assert_eq!(
            parse_status("ok appended S2 +128 tuples=32896").unwrap(),
            Status::Ok("appended S2 +128 tuples=32896".to_string())
        );
        assert_eq!(
            parse_status("err limit max_rows exceeded").unwrap(),
            Status::Err {
                class: "limit".to_string(),
                message: "max_rows exceeded".to_string()
            }
        );
        assert!(parse_status("listening on 127.0.0.1:9").is_err());
        assert!(parse_status("ok answers=many cache=hit load=1 predicted=1").is_err());
        assert!(parse_status("ok answers=3 cache=hit").is_err());
    }

    #[test]
    fn frames_rows_up_to_end() {
        let mut c = conn_over(
            "ok answers=2 algo=hc cache=hit rounds=1 load=5 predicted=5\n1 2 3\n4 5 6\nend\nok bye\n",
        );
        let r = c.read_reply(true, true).unwrap();
        assert_eq!((r.row_lines, r.lines), (2, 4));
        assert_eq!(r.kept, ["1 2 3", "4 5 6"]);
        assert_eq!(
            r.row_checksum,
            line_checksum("4 5 6").wrapping_add(line_checksum("1 2 3"))
        );
        assert_eq!(r.bytes, 59 + 6 + 6 + 4);
        // The next reply starts right after `end`.
        let r = c.read_reply(false, false).unwrap();
        assert_eq!(r.status, Status::Ok("bye".to_string()));
        assert!(c.read_reply(false, false).is_err(), "EOF is an error");
    }

    #[test]
    fn an_err_reply_to_a_rows_query_is_one_line() {
        let mut c = conn_over("err timeout query deadline exceeded\nok bye\n");
        let r = c.read_reply(true, false).unwrap();
        assert!(matches!(r.status, Status::Err { ref class, .. } if class == "timeout"));
        assert_eq!(r.lines, 1);
        assert_eq!(
            c.read_reply(false, false).unwrap().status,
            Status::Ok("bye".into())
        );
    }

    #[test]
    fn parses_stats_and_proc_files() {
        let rows = vec![
            "sketch bytes=4096 capacity=256 max_error=3".to_string(),
            "rel S1 arity=2 tuples=9 tracked=1".to_string(),
        ];
        let s = parse_stats(
            "plans=3 hits=10 misses=3 invalidations=1 evictions=0 relations=2 mode=sketch",
            &rows,
        )
        .unwrap();
        assert_eq!(
            s,
            ServerStats {
                hits: 10,
                misses: 3,
                invalidations: 1,
                evictions: 0,
                sketch_bytes: 4096
            }
        );
        assert!(parse_stats("plans=3 hits=x", &[]).is_err());
        let stat = "42 (mpc skew) S 1 42 42 0 -1 4194304 100 0 0 0 151 7 0 0 20 0 1 0 5 1 2";
        assert_eq!(parse_cpu_ticks(stat).unwrap(), 158);
        assert_eq!(
            parse_vm_hwm_kib("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n").unwrap(),
            20480
        );
    }
}
