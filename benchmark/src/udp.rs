//! `udp_w256`: allreduce over real loopback UDP, the one path with no
//! simulator in it.
//!
//! The compiled software switch sits behind a `UdpEndpoint` (`recv_raw`
//! → `process_window` → `send_raw` per verdict) and two more endpoints
//! are the workers. An *op* sends slot `s` from each worker and
//! completes when worker 1 receives the broadcast sum. Slots are reused
//! round-robin and the switch never resets its accumulators, so the
//! expected sum of a slot's `r`-th use is `r × (a + b)`, wrapping.
//!
//! One thread drives all three sockets in turn: workers send until
//! [`IN_FLIGHT`] ops are out, the switch drains its socket, worker 1
//! drains its own. Loopback delivers a datagram inside `send_to`, so
//! nothing ever waits for another thread, and the time of an op is the
//! sum of the syscalls, codec and kernel work it takes — which is what
//! this workload is here to show. With the switch on a thread of its
//! own the same loop measured, on the shared two-core host this was
//! built on, mostly the scheduler: 17k to 311k windows/s between
//! consecutive 0.7 s slices of one run. Traffic crosses the host's
//! loopback interface, not a link.

use crate::compile::{chip, compile_program, staged, StageTimes};
use crate::layers::host_windows;
use ncl::core::apps::allreduce_source;
use ncl::core::nclc::{CompileConfig, CompiledProgram};
use ncl::core::runtime::TypedArray;
use ncl::core::FastPathSwitch;
use ncl::model::{HostId, Value, Window};
use ncl::ncp::udp::UdpEndpoint;
use rand::prelude::*;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Aggregation slots, reused round-robin.
pub const SLOTS: usize = 4_096;
/// Elements per window: one datagram under the 1472-byte MTU.
pub const WIN: usize = 256;
/// Ops kept in flight by the host thread.
pub const IN_FLIGHT: usize = 16;
/// An op without its result after this long is failed and its slot
/// retired (the switch's count for it can no longer be trusted).
const OP_TIMEOUT: Duration = Duration::from_secs(1);
const AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";

/// Compiled program and generated inputs.
pub struct UdpSetup {
    src: String,
    cfg: CompileConfig,
    /// The compiled allreduce program.
    pub program: CompiledProgram,
    /// `windows[worker][slot]`, ready for `send_window`.
    pub windows: [Vec<Window>; 2],
    /// `a[i] + b[i]`, wrapping, over all slots.
    sum_ab: Vec<i32>,
}

impl UdpSetup {
    /// Compiles the program and generates both workers' arrays.
    pub fn new(rng: &mut StdRng) -> UdpSetup {
        let elements = SLOTS * WIN;
        let src = allreduce_source(elements, WIN);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
        cfg.masks.insert("result".into(), vec![WIN as u16]);
        cfg.model = chip();
        let program = compile_program(&src, AND, &cfg);
        let a: Vec<i32> = (0..elements).map(|_| rng.gen()).collect();
        let b: Vec<i32> = (0..elements).map(|_| rng.gen()).collect();
        let sum_ab = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        let windows = [(1, &a), (2, &b)].map(|(w, data)| {
            host_windows(
                &program,
                HostId(w),
                "allreduce",
                &[TypedArray::from_i32(data)],
            )
        });
        UdpSetup {
            src,
            cfg,
            program,
            windows,
            sum_ab,
        }
    }

    /// Stage-by-stage compile times of the program.
    pub fn compile_stages(&self) -> StageTimes {
        staged(&self.src, AND, &self.cfg)
    }

    /// Whether `w` carries the correct sum for the `round`-th use of
    /// its slot.
    pub fn result_ok(&self, w: &Window, round: u32) -> bool {
        let slot = w.seq as usize;
        let Some(expected) = self.sum_ab.get(slot * WIN..(slot + 1) * WIN) else {
            return false;
        };
        // Window payloads are big-endian on the wire and in `Chunk`.
        let [chunk] = &w.chunks[..] else {
            return false;
        };
        chunk.data.len() == WIN * 4
            && chunk
                .data
                .chunks_exact(4)
                .zip(expected)
                .all(|(got, ab)| got == ab.wrapping_mul(round as i32).to_be_bytes())
    }
}

/// Fixed-size store of the most recent round-trip times, touched up
/// front so the number of ops a run completes does not move peak RSS.
pub struct RttRing {
    ns: Vec<u32>,
    next: usize,
    filled: bool,
}

impl Default for RttRing {
    fn default() -> Self {
        RttRing {
            ns: vec![0; 1 << 20],
            next: 0,
            filled: false,
        }
    }
}

impl RttRing {
    fn push(&mut self, ns: u64) {
        self.ns[self.next] = ns.min(u64::from(u32::MAX)) as u32;
        self.next += 1;
        if self.next == self.ns.len() {
            self.next = 0;
            self.filled = true;
        }
    }

    /// Forgets every sample (between warm-up and the timed phase).
    pub fn clear(&mut self) {
        self.next = 0;
        self.filled = false;
    }

    /// The stored samples in µs.
    pub fn samples_us(&self) -> Vec<f64> {
        let n = if self.filled {
            self.ns.len()
        } else {
            self.next
        };
        self.ns[..n].iter().map(|&v| f64::from(v) / 1e3).collect()
    }
}

/// Completions per entry of [`Phase::chunk_ns`].
pub const CHUNK_OPS: u64 = 1_024;

/// Totals of one phase of ops.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Ops whose result arrived and was correct.
    pub ok: u64,
    /// Ops with a wrong result or none within the timeout.
    pub failed: u64,
    /// Of those, the ones that timed out.
    pub timeouts: u64,
    /// First send to last completion, ns.
    pub wall_ns: u64,
    /// Wall time of each consecutive [`CHUNK_OPS`] completions, ns. A
    /// rate taken from the median chunk is not moved by the stretches
    /// in which a shared host gives the process no CPU.
    pub chunk_ns: Vec<u64>,
}

/// When a phase stops issuing ops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many ops.
    Ops(u64),
    /// At this instant.
    Deadline(Instant),
}

/// A running fabric: the software switch and both workers, each
/// behind its own loopback socket.
pub struct UdpFabric {
    fp: FastPathSwitch,
    sw: UdpEndpoint,
    sw_addr: SocketAddr,
    w1: UdpEndpoint,
    w2: UdpEndpoint,
    workers: [SocketAddr; 2],
    /// Clock every `process_window` call (the traced run).
    time_switch: bool,
    switch_busy_ns: u64,
    /// Completed uses per slot.
    rounds: Vec<u32>,
    retired: Vec<bool>,
    next_slot: usize,
}

impl UdpFabric {
    /// From compiled program to runnable fabric: builds the software
    /// switch and binds three non-blocking loopback sockets.
    pub fn deploy(setup: &UdpSetup) -> std::io::Result<UdpFabric> {
        let mut fp = FastPathSwitch::from_program_with(&setup.program, "s1", true)
            .expect("s1 carries the allreduce kernel");
        assert!(
            fp.ctrl_wr("nworkers", Value::u32(2)),
            "nworkers write lands"
        );
        let sw = UdpEndpoint::bind("127.0.0.1:0")?;
        let w1 = UdpEndpoint::bind("127.0.0.1:0")?;
        let w2 = UdpEndpoint::bind("127.0.0.1:0")?;
        for e in [&sw, &w1, &w2] {
            e.set_nonblocking(true)?;
        }
        Ok(UdpFabric {
            fp,
            sw_addr: sw.local_addr()?,
            workers: [w1.local_addr()?, w2.local_addr()?],
            sw,
            w1,
            w2,
            time_switch: false,
            switch_busy_ns: 0,
            rounds: vec![0; SLOTS],
            retired: vec![false; SLOTS],
            next_slot: 0,
        })
    }

    /// Turns the clocking of `process_window` calls on or off.
    pub fn time_switch(&mut self, on: bool) {
        self.time_switch = on;
    }

    /// Time spent inside `process_window` while clocked, ns.
    pub fn switch_busy_ns(&self) -> u64 {
        self.switch_busy_ns
    }

    /// The switch's turn: every queued datagram goes through
    /// `process_window` and out again per its verdict.
    fn switch_step(&mut self) -> std::io::Result<()> {
        while let Some((bytes, src)) = self.sw.recv_raw()? {
            let verdict = if self.time_switch {
                let t = Instant::now();
                let v = self.fp.process_window(&bytes);
                self.switch_busy_ns += t.elapsed().as_nanos() as u64;
                v
            } else {
                self.fp.process_window(&bytes)
            };
            let [a, b] = self.workers;
            let other = if src == a { b } else { a };
            match verdict {
                Some(v) => match v.fwd_code {
                    1 => self.sw.send_raw(src, &v.payload)?,
                    2 => {
                        self.sw.send_raw(a, &v.payload)?;
                        self.sw.send_raw(b, &v.payload)?;
                    }
                    3 => {}
                    _ => self.sw.send_raw(other, &v.payload)?,
                },
                None => self.sw.send_raw(other, &bytes)?,
            }
        }
        Ok(())
    }

    /// Datagrams the worker endpoints rejected as non-NCP.
    pub fn malformed(&self) -> u64 {
        self.w1.malformed() + self.w2.malformed()
    }

    fn send_op(&mut self, setup: &UdpSetup) -> std::io::Result<Option<usize>> {
        let Some(slot) = (0..SLOTS)
            .map(|i| (self.next_slot + i) % SLOTS)
            .find(|&s| !self.retired[s])
        else {
            return Ok(None);
        };
        self.next_slot = (slot + 1) % SLOTS;
        self.w1.send_window(self.sw_addr, &setup.windows[0][slot])?;
        self.w2.send_window(self.sw_addr, &setup.windows[1][slot])?;
        Ok(Some(slot))
    }

    /// Runs ops closed-loop, [`IN_FLIGHT`] at a time, until `until`;
    /// then waits for the ops still in flight. Round trips land in
    /// `rtts`.
    pub fn run_ops(
        &mut self,
        setup: &UdpSetup,
        until: Until,
        rtts: &mut RttRing,
    ) -> std::io::Result<Phase> {
        let mut phase = Phase::default();
        // `(slot, first send)`, oldest first.
        let mut in_flight: Vec<(usize, Instant)> = Vec::with_capacity(IN_FLIGHT);
        let mut issued = 0u64;
        let start = Instant::now();
        let mut last_done = start;
        let mut chunk_start = start;
        loop {
            let mut more = match until {
                Until::Ops(n) => issued < n,
                Until::Deadline(d) => Instant::now() < d,
            };
            while more && in_flight.len() < IN_FLIGHT {
                let Some(slot) = self.send_op(setup)? else {
                    break;
                };
                in_flight.push((slot, Instant::now()));
                issued += 1;
                more = !matches!(until, Until::Ops(n) if issued >= n);
            }
            if in_flight.is_empty() {
                break;
            }
            self.switch_step()?;
            match self.w1.recv_window()? {
                Some((w, _)) => {
                    let slot = w.seq as usize;
                    if let Some(i) = in_flight.iter().position(|&(s, _)| s == slot) {
                        let (_, t0) = in_flight.remove(i);
                        last_done = Instant::now();
                        rtts.push((last_done - t0).as_nanos() as u64);
                        self.rounds[slot] += 1;
                        if setup.result_ok(&w, self.rounds[slot]) {
                            phase.ok += 1;
                        } else {
                            phase.failed += 1;
                        }
                        if (phase.ok + phase.failed) % CHUNK_OPS == 0 {
                            phase
                                .chunk_ns
                                .push((last_done - chunk_start).as_nanos() as u64);
                            chunk_start = last_done;
                        }
                    }
                }
                None => {
                    while in_flight
                        .first()
                        .is_some_and(|(_, t)| t.elapsed() > OP_TIMEOUT)
                    {
                        let (slot, _) = in_flight.remove(0);
                        self.retired[slot] = true;
                        phase.failed += 1;
                        phase.timeouts += 1;
                    }
                }
            }
            // Worker 2 gets a copy of every broadcast; keep its socket
            // buffer from filling.
            while let Ok(Some(_)) = self.w2.recv_raw() {}
        }
        phase.wall_ns = (last_done - start).as_nanos() as u64;
        Ok(phase)
    }
}

/// Cost of the socket layer alone: `send_window` and `recv_window` of
/// `w` between two loopback endpoints, in batches small enough to sit
/// in the socket buffer, so neither side ever waits for the other.
/// Returns `(send ns, recv ns)` per window.
pub fn socket_costs(w: &Window, budget: Duration) -> std::io::Result<(f64, f64)> {
    const BATCH: usize = 32;
    let mut a = UdpEndpoint::bind("127.0.0.1:0")?;
    let mut b = UdpEndpoint::bind("127.0.0.1:0")?;
    let dst = b.local_addr()?;
    let (mut send_ns, mut recv_ns, mut n) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..BATCH {
            a.send_window(dst, w)?;
        }
        send_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for _ in 0..BATCH {
            if b.recv_window()?.is_none() {
                return Err(std::io::Error::other("loopback dropped a datagram"));
            }
        }
        recv_ns += t.elapsed().as_nanos() as u64;
        n += BATCH as u64;
    }
    Ok((send_ns as f64 / n as f64, recv_ns as f64 / n as f64))
}
