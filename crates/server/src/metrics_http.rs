//! A minimal hand-rolled HTTP/1.1 listener for `GET /metrics` — just
//! enough protocol for Prometheus-compatible scrapers, std-only. One
//! thread accepts; each request is served inline (scrapes are rare and
//! rendering is microseconds, so a per-connection thread would be waste).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The Prometheus text exposition content type.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Read and write timeout of one scrape connection: the most an idle or
/// stalled peer can delay the scrapes queued behind it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds `addr` and serves `GET /metrics` forever on a background thread,
/// rendering the body with `body` per request. Returns the bound address
/// (use port 0 to let the OS pick). The thread runs until process exit —
/// the listener has no independent shutdown, matching the server's
/// process-per-instance lifecycle.
pub fn spawn_metrics_listener(
    addr: &str,
    body: Arc<dyn Fn() -> String + Send + Sync>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let _ = serve_one(stream, &*body);
        }
    });
    Ok(bound)
}

/// Reads one request, writes one response, closes the connection.
fn serve_one(stream: TcpStream, body: &(dyn Fn() -> String + Send + Sync)) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see a clean close.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut w = stream;
    if method != "GET" {
        return respond(&mut w, "405 Method Not Allowed", "text/plain", "only GET\n");
    }
    // Accept query strings (`/metrics?foo=1`) the way real scrapers send
    // them.
    if path != "/metrics" && !path.starts_with("/metrics?") {
        return respond(&mut w, "404 Not Found", "text/plain", "try /metrics\n");
    }
    respond(&mut w, "200 OK", CONTENT_TYPE, &body())
}

fn respond(
    w: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn an_idle_connection_does_not_block_scrapes() {
        let addr = spawn_metrics_listener("127.0.0.1:0", Arc::new(|| "up 1\n".to_string()))
            .expect("bind an ephemeral port");
        // Connected, never sends a byte, held open past the whole scrape.
        let idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut scrape = TcpStream::connect(addr).unwrap();
        scrape
            .set_read_timeout(Some(IO_TIMEOUT * 5))
            .expect("client timeout");
        write!(scrape, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        scrape
            .read_to_string(&mut response)
            .expect("the scrape is answered while the idle socket is open");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("up 1\n"), "{response}");
        drop(idle);
    }
}
