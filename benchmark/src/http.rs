//! A minimal HTTP/1.1 client for `POST /detect` over a keep-alive
//! connection: one request in flight, no pipelining, no socket options
//! that would hide a stall in the server's response path.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// A `/detect` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Assembles the full request (head and PPM body) once, so the timed loop
/// writes it with a single `write_all`.
pub fn detect_request(ppm: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST /detect HTTP/1.1\r\nHost: benchmark\r\nContent-Type: image/x-portable-pixmap\r\n\
         Content-Length: {}\r\n\r\n",
        ppm.len()
    )
    .into_bytes();
    request.extend_from_slice(ppm);
    request
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Splits a response head into status and `Content-Length`.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| invalid("response lacks Content-Length"))?;
    Ok((status, length))
}

/// Sends one prepared request and reads the whole reply. `buf` is the
/// connection's read buffer, reused across calls.
///
/// # Errors
///
/// Returns the I/O error (including a read timeout set on the stream), or
/// `InvalidData` for a reply that is not framed by `Content-Length` or
/// that is followed by bytes nobody asked for.
pub fn round_trip(stream: &mut TcpStream, request: &[u8], buf: &mut Vec<u8>) -> io::Result<Reply> {
    stream.write_all(request)?;
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let (head_len, status, length) = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let (status, length) = parse_head(&buf[..end])?;
            break (end + 4, status, length);
        }
        if buf.len() > 64 * 1024 {
            return Err(invalid("response head exceeds 64 KiB"));
        }
    };
    while buf.len() < head_len + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    if buf.len() != head_len + length {
        return Err(invalid("bytes after the reply body"));
    }
    Ok(Reply {
        status,
        body: buf[head_len..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_is_case_insensitive_and_strict() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 12";
        assert_eq!(parse_head(head).unwrap(), (200, 12));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close").is_err());
        assert!(parse_head(b"garbage").is_err());
    }

    #[test]
    fn request_is_one_buffer_with_exact_length() {
        let r = detect_request(b"P6\n1 1\n255\nabc");
        let text = String::from_utf8_lossy(&r);
        assert!(text.starts_with("POST /detect HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 14\r\n\r\nP6\n"));
    }

    #[test]
    fn round_trip_reads_a_reply_written_in_pieces() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = [0u8; 5];
            s.read_exact(&mut got).unwrap();
            s.write_all(b"HTTP/1.1 503 Busy\r\nContent-Le").unwrap();
            s.flush().unwrap();
            s.write_all(b"ngth: 4\r\n\r\nab").unwrap();
            s.write_all(b"cd").unwrap();
            got
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = round_trip(&mut client, b"hello", &mut Vec::new()).unwrap();
        assert_eq!(server.join().unwrap(), *b"hello");
        assert_eq!(
            reply,
            Reply {
                status: 503,
                body: b"abcd".to_vec()
            }
        );
    }
}
