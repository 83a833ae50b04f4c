//! A tiny UDP beacon that serves live scope/registry snapshots to the
//! `ncscope` CLI.
//!
//! Protocol: the client sends the 8-byte probe `NCSCOPE?`; the
//! beacon replies with one datagram containing a flight-recorder JSON
//! snapshot (reason `"on_demand"`). Replies are capped below the UDP
//! datagram limit by truncating the event log to the newest entries —
//! the `events_dropped` field accounts for what was cut.

use super::Scope;
use crate::metrics::Registry;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The probe datagram a client sends to request a snapshot.
pub(crate) const BEACON_PROBE: &[u8] = b"NCSCOPE?";

/// Largest reply we will send (one safe UDP datagram).
const MAX_REPLY: usize = 60_000;

/// A running beacon thread; dropping it shuts the thread down.
pub struct Beacon {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Beacon {
    /// The address the beacon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops the beacon thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Beacon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Spawns a beacon on `bind` (e.g. `"127.0.0.1:0"`) serving snapshots
/// of the given scope and registry.
pub fn spawn_beacon(bind: &str, registry: Arc<Registry>, scope: Scope) -> io::Result<Beacon> {
    let sock = UdpSocket::bind(bind)?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let local = sock.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_t = stop.clone();
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        while !stop_t.load(Ordering::Relaxed) {
            let Ok((n, peer)) = sock.recv_from(&mut buf) else {
                continue; // timeout tick: re-check the stop flag
            };
            if &buf[..n] != BEACON_PROBE {
                continue;
            }
            // Shrink the event window until the reply fits a datagram.
            let mut max_events = 512usize;
            let mut reply;
            loop {
                reply = scope.flight_json_capped("on_demand", 0, Some(&registry), &[], max_events);
                if reply.len() <= MAX_REPLY || max_events <= 8 {
                    break;
                }
                max_events /= 2;
            }
            let _ = sock.send_to(reply.as_bytes(), peer);
        }
    });
    Ok(Beacon {
        local,
        stop,
        handle: Some(handle),
    })
}

/// Queries a beacon: sends the probe and returns the JSON reply.
pub fn query(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<String> {
    let sock = UdpSocket::bind("0.0.0.0:0")?;
    sock.set_read_timeout(Some(timeout))?;
    sock.send_to(BEACON_PROBE, addr)?;
    let mut buf = vec![0u8; 65_536];
    let (n, _) = sock.recv_from(&mut buf)?;
    String::from_utf8(buf[..n].to_vec()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::super::event::{ScopeEvent, WindowKey};
    use super::super::json;
    use super::*;

    #[test]
    fn beacon_serves_live_snapshots() {
        let registry = Arc::new(Registry::new());
        registry.counter("beacon.test").add(41);
        let scope = Scope::new(64);
        scope.emit(
            5,
            1,
            WindowKey::new(1, 7, 0),
            ScopeEvent::WindowSent { attempt: 0 },
        );
        let beacon = spawn_beacon("127.0.0.1:0", registry, scope.clone()).unwrap();
        let reply = query(beacon.addr(), Duration::from_secs(2)).unwrap();
        let doc = json::parse(&reply).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("ncscope-flight"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("on_demand"));
        assert_eq!(doc.get("events").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("beacon.test")
                .unwrap()
                .as_u64(),
            Some(41)
        );
        beacon.shutdown();
    }
}
