//! The in-process daemon harness shared by the serve crate's integration
//! tests: a scratch directory, a daemon booted on an ephemeral port, and
//! a synchronous line client.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::{self, JoinHandle};

use braid_serve::server::{Server, ServerConfig};
use braid_sweep::json::{self, Json};

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("braid-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boots a daemon and returns its address plus the join handle for its
/// accept loop.
pub fn start(cfg: ServerConfig) -> (String, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// A simple synchronous client: send one line, read one line.
pub struct Client {
    pub reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, writer: BufWriter::new(stream) }
    }

    pub fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    pub fn round_trip(&mut self, line: &str) -> Json {
        self.send(line);
        json::parse(&self.recv()).expect("response is JSON")
    }
}
