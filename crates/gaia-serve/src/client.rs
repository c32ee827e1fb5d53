//! A line-oriented client for the `gaia serve` daemon.
//!
//! `gaia serve --connect ADDR` wraps this: request lines come from any
//! `BufRead` (usually stdin or a scripted submission log), each is sent
//! to the daemon, and the daemon's response line is written to the
//! output in lockstep. Scripts therefore need no netcat or ad-hoc
//! socket code, and the output stream is exactly the response stream
//! the byte-identity checks compare.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Connects to a daemon and replays `input` line by line, writing one
/// response line per request to `out`. Blank input lines are skipped.
/// Returns the number of requests sent.
pub fn replay(addr: &str, input: impl BufRead, mut out: impl Write) -> Result<u64, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the connection: {e}"))?;
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut sent = 0u64;
    for line in input.lines() {
        let mut line = line.map_err(|e| format!("cannot read request input: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        // One write per line, so Nagle's algorithm never holds a lone
        // newline back until the daemon's delayed ACK.
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("cannot send to {addr}: {e}"))?;
        sent += 1;
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| format!("cannot read the response: {e}"))?;
        if n == 0 {
            return Err(format!(
                "the daemon closed the connection after {sent} request(s)"
            ));
        }
        out.write_all(response.as_bytes())
            .map_err(|e| format!("cannot write the response: {e}"))?;
    }
    out.flush()
        .map_err(|e| format!("cannot flush output: {e}"))?;
    Ok(sent)
}
