//! The `serve` process under test and the loopback clients that drive it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long `serve` may take to build its session and start listening.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long one response may take before the client gives up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(90);

/// A running `serve --listen` process. Its stderr is drained by a thread
/// (so logging never blocks it); dropping the handle kills the process.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    log: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawn `bin` with `args` and wait until it reports its listening
    /// address.
    pub fn start(bin: &Path, args: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let sink = Arc::clone(&log);
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split(" listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
                sink.lock().unwrap_or_else(|e| e.into_inner()).push(line);
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            log,
            drain: Some(drain),
            spawned,
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err(format!(
                "serve did not start listening:\n{}",
                server.log_tail()
            )),
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The last lines `serve` logged.
    pub fn log_tail(&self) -> String {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log[log.len().saturating_sub(20)..].join("\n")
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read serve's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in serve's /proc status".to_string())
    }

    /// Ask the server to shut down and wait for it to exit (killing it
    /// after a grace period).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.call(r#"{"id":"stop","mode":"shutdown"}"#).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        let result = match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("serve exited with {s}:\n{}", self.log_tail())),
            None => Err(format!("serve did not shut down:\n{}", self.log_tail())),
        };
        self.reap();
        result
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One loopback connection speaking the JSONL protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and wait for its response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}
