//! A closed-loop HTTP/1.1 client for the `serve` workload: one request
//! per connection, read to close, with client-side arrival times.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One finished exchange.
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// Before `connect`.
    pub start: Instant,
    /// First response byte.
    pub first_byte: Instant,
    /// Stream closed by the server.
    pub end: Instant,
    /// Arrival time of each complete body line, in order.
    pub lines: Vec<Instant>,
}

impl Exchange {
    pub fn millis(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// The `"event"` of each body line, paired with its arrival.
    pub fn events(&self) -> Vec<(String, Instant)> {
        self.body
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .zip(&self.lines)
            .map(|(line, &at)| {
                let text = String::from_utf8_lossy(line);
                let event = text
                    .split("\"event\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or("")
                    .to_owned();
                (event, at)
            })
            .collect()
    }
}

/// Sends one request and reads the response until the server closes.
///
/// # Errors
/// Connection and I/O failures, or a response without a status line.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;

    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    // (byte offset just past a '\n', arrival) for every newline received.
    let mut newlines: Vec<(usize, Instant)> = Vec::new();
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        first_byte.get_or_insert(now);
        for (i, &b) in chunk[..n].iter().enumerate() {
            if b == b'\n' {
                newlines.push((raw.len() + i + 1, now));
            }
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    let end = Instant::now();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let lines = newlines
        .into_iter()
        .filter(|&(offset, _)| offset > head_end)
        .map(|(_, at)| at)
        .collect();
    Ok(Exchange {
        status,
        body: raw[head_end..].to_vec(),
        start,
        first_byte: first_byte.unwrap_or(end),
        end,
        lines,
    })
}
