//! NCP reassembly under adversarial arrival orders: out-of-order
//! fragments, duplicated fragments, windows from two senders
//! interleaving on one reassembler, the bounded-memory eviction
//! policy, and fragments whose offsets contradict each other.

use c3::{Chunk, HostId, KernelId, NodeId, Window};
use ncp::codec::{fragment_window, Reassembler};
use ncp::wire::{NcpRepr, WireError, FLAG_FIRST_FRAG, FLAG_FRAGMENT, FLAG_LAST, FLAG_MORE_FRAGS};

fn window(sender: u16, seq: u32, vals: &[u32], last: bool) -> Window {
    Window {
        kernel: KernelId(2),
        seq,
        sender: HostId(sender),
        from: NodeId::Host(HostId(sender)),
        last,
        chunks: vec![Chunk {
            offset: seq * vals.len() as u32 * 4,
            data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }],
        ext: vec![0x11],
    }
}

fn frags(sender: u16, seq: u32, n: u32) -> (Window, Vec<Vec<u8>>) {
    let w = window(sender, seq, &(0..n).collect::<Vec<_>>(), true);
    let f = fragment_window(&w, 1, 80);
    assert!(f.len() >= 3, "need several fragments, got {}", f.len());
    (w, f)
}

#[test]
fn fully_reversed_arrival_order() {
    let (w, mut f) = frags(1, 0, 48);
    f.reverse();
    let mut r = Reassembler::new();
    let mut got = None;
    for frag in &f {
        assert!(got.is_none(), "must not complete early");
        got = r.push(frag).unwrap();
    }
    let got = got.expect("completes on the last (originally first) fragment");
    assert_eq!(got.chunks, w.chunks);
    assert!(got.last);
    assert_eq!(r.pending(), 0);
}

#[test]
fn duplicate_fragments_are_idempotent() {
    let (w, f) = frags(1, 0, 48);
    let mut r = Reassembler::new();
    // Push every fragment except the final one, each three times.
    for frag in &f[..f.len() - 1] {
        for _ in 0..3 {
            assert!(r.push(frag).unwrap().is_none());
        }
    }
    let got = r.push(&f[f.len() - 1]).unwrap().expect("completes once");
    assert_eq!(got.chunks, w.chunks);
    // A late duplicate of the final fragment starts a fresh (incomplete)
    // partial rather than producing a second window.
    assert!(r.push(&f[f.len() - 1]).unwrap().is_none());
    assert_eq!(r.pending(), 1);
}

#[test]
fn two_senders_same_seq_interleave_independently() {
    // Same kernel, same seq — only the sender id separates the streams.
    let (wa, fa) = frags(1, 7, 48);
    let (wb, fb) = frags(2, 7, 48);
    let mut r = Reassembler::new();
    let mut done = Vec::new();
    for (a, b) in fa.iter().zip(&fb) {
        if let Some(w) = r.push(a).unwrap() {
            done.push(w);
        }
        if let Some(w) = r.push(b).unwrap() {
            done.push(w);
        }
    }
    assert_eq!(done.len(), 2);
    let by_sender = |s: u16| done.iter().find(|w| w.sender.0 == s).unwrap();
    assert_eq!(by_sender(1).chunks, wa.chunks);
    assert_eq!(by_sender(2).chunks, wb.chunks);
    assert_eq!(r.pending(), 0);
}

#[test]
fn pending_windows_are_bounded() {
    let cap = 4;
    let mut r = Reassembler::with_max_pending(cap);
    // 32 windows, each missing its final fragment: pending may never
    // exceed the cap, and the overflow shows up in the eviction counter.
    let all: Vec<_> = (0..32).map(|seq| frags(1, seq, 48).1).collect();
    for f in &all {
        for frag in &f[..f.len() - 1] {
            r.push(frag).unwrap();
        }
        assert!(r.pending() <= cap);
    }
    assert_eq!(r.pending(), cap);
    assert_eq!(r.evictions(), 32 - cap as u64);
    // The survivors are the most recent windows; the newest still
    // completes when its final fragment arrives.
    let newest = &all[31];
    let got = r.push(&newest[newest.len() - 1]).unwrap();
    assert_eq!(got.expect("newest window completes").seq, 31);
    // An evicted window's final fragment cannot complete it any more.
    let evicted = &all[0];
    assert!(r.push(&evicted[evicted.len() - 1]).unwrap().is_none());
}

#[test]
fn eviction_prefers_stalest_not_newest() {
    let mut r = Reassembler::with_max_pending(2);
    let (_, f0) = frags(1, 0, 48);
    let (w1, f1) = frags(1, 1, 48);
    let (_, f2) = frags(1, 2, 48);
    // Start windows 0 and 1; keep 1 "fresh" by re-pushing one of its
    // fragments after touching 0.
    r.push(&f0[0]).unwrap();
    r.push(&f1[0]).unwrap();
    r.push(&f1[1]).unwrap();
    // Window 2 arrives: the cap evicts window 0 (stalest), not 1.
    r.push(&f2[0]).unwrap();
    assert_eq!(r.pending(), 2);
    assert_eq!(r.evictions(), 1);
    let mut got = None;
    for frag in &f1[2..] {
        got = r.push(frag).unwrap();
    }
    assert_eq!(
        got.expect("window 1 survived the eviction").chunks,
        w1.chunks
    );
}

#[test]
fn clear_recycles_everything() {
    let mut r = Reassembler::new();
    for seq in 0..8 {
        let (_, f) = frags(1, seq, 48);
        r.push(&f[0]).unwrap();
    }
    assert_eq!(r.pending(), 8);
    r.clear();
    assert_eq!(r.pending(), 0);
    // The reassembler still works after a clear.
    let (w, f) = frags(1, 99, 48);
    let mut got = None;
    for frag in &f {
        got = r.push(frag).unwrap();
    }
    assert_eq!(got.expect("complete").chunks, w.chunks);
}

/// A hand-made fragment of sender 1's window 0 of kernel 2 (the key
/// [`frags`]`(1, 0, _)` uses): `flags` beside `FLAG_FRAGMENT`, one chunk
/// of `len` filler bytes at `offset`.
fn fragment(flags: u8, offset: u32, len: u16) -> Vec<u8> {
    let repr = NcpRepr {
        flags: FLAG_FRAGMENT | flags,
        kernel: 2,
        seq: 0,
        sender: 1,
        from: NodeId::Host(HostId(1)).to_wire(),
        chunks: vec![(offset, len)],
        ext: vec![],
    };
    let mut buf = vec![0xab; repr.buffer_len()];
    repr.emit(&mut buf);
    buf
}

/// Fragment sequences whose chunk bounds contradict their pieces, as a
/// socket can deliver them: each is refused when it completes, never a
/// panic, and leaves neither a partial window nor a poisoned key behind.
#[test]
fn contradictory_fragments_are_refused() {
    const FIRST: u8 = FLAG_FIRST_FRAG | FLAG_MORE_FRAGS;
    const MORE: u8 = FLAG_MORE_FRAGS;
    const FINAL: u8 = FLAG_LAST;
    let cases = [
        (
            "a piece before the start",
            vec![
                fragment(FIRST, 100, 0),
                fragment(MORE, 50, 5),
                fragment(FINAL, 105, 5),
            ],
        ),
        (
            "an end below a later start",
            vec![fragment(FINAL, 0, 5), fragment(FIRST, 100, 0)],
        ),
        (
            "a piece past the end",
            vec![
                fragment(FIRST, 0, 5),
                fragment(MORE, 8, 5),
                fragment(FINAL, 10, 0),
            ],
        ),
        (
            "overlapping pieces",
            vec![
                fragment(FIRST, 0, 5),
                fragment(MORE, 3, 5),
                fragment(FINAL, 8, 2),
            ],
        ),
        (
            "an end past u32::MAX",
            vec![fragment(FIRST, 0, 5), fragment(FINAL, u32::MAX - 2, 5)],
        ),
    ];
    for (what, sequence) in cases {
        let mut r = Reassembler::new();
        let (last, leading) = sequence.split_last().expect("non-empty");
        for f in leading {
            assert_eq!(r.push(f), Ok(None), "{what}");
        }
        assert_eq!(r.push(last), Err(WireError::Inconsistent), "{what}");
        assert_eq!(r.pending(), 0, "{what}");
        let (w, clean) = frags(1, 0, 48);
        let mut got = None;
        for f in &clean {
            got = r.push(f).unwrap();
        }
        assert_eq!(
            got.expect("clean window completes").chunks,
            w.chunks,
            "{what}"
        );
    }
}
