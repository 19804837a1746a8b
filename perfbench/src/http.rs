//! A minimal keep-alive HTTP/1.1 client for `qelectd`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            addr,
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request; `(status, body)`. A connection the daemon closed
    /// while idle is reopened once.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        match self.roundtrip(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                *self = Client::connect(self.addr)?;
                self.roundtrip(method, path, body)
            }
        }
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: qelectd\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer
            .write_all(head.as_bytes())
            .and_then(|_| self.writer.write_all(body.as_bytes()))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let code: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad length {value:?}"))?;
                }
            }
        }
        if len > 1 << 24 {
            return Err(format!("response of {len} bytes"));
        }
        let mut buf = vec![0u8; len];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("recv body: {e}"))?;
        let body = String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?;
        Ok((code, body))
    }
}
