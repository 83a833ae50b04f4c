//! Handwritten comparison artifact.
//!
//! [`handwritten_netcache_p4`] is the paper's Fig. 1b written by hand in
//! P4-16, the way a P4 programmer writes an in-network cache today:
//! explicit headers, a `CacheLookup` MAT writing hit/idx metadata, a
//! `CacheValid` register check, and one `ReadN` register action per
//! value word. E3 compares its size with the NCL source (Fig. 5) and
//! the nclc-generated P4.

/// The NetCache-style GET cache as handwritten P4-16 — the E3
/// comparison document (expanded from the paper's Fig. 1b sketch to a
/// complete program the way NetCache's public source is).
pub fn handwritten_netcache_p4(slots: usize, val_words: usize) -> String {
    let mut s = String::new();
    s.push_str(
        r#"#include <core.p4>
#include <v1model.p4>

header ethernet_t { bit<48> dst; bit<48> src; bit<16> etype; }
header ipv4_t {
    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len;
    bit<16> id; bit<3> flags; bit<13> frag; bit<8> ttl;
    bit<8> proto; bit<16> csum; bit<32> src; bit<32> dst;
}
header udp_t { bit<16> sport; bit<16> dport; bit<16> len; bit<16> csum; }
header cache_t {
    bit<16> magic; bit<8> version; bit<8> flags; bit<16> op;
    bit<32> seq; bit<16> sender; bit<16> from;
    bit<64> key; bit<8> update;
}
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!("header val{i}_t {{ bit<32> v; }}\n"));
    }
    s.push_str(
        r#"
struct metadata_t { bit<1> hit; bit<8> idx; bit<1> valid; bit<1> serve; }
struct headers_t {
    ethernet_t ethernet; ipv4_t ipv4; udp_t udp; cache_t cache;
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!("    val{i}_t val{i};\n"));
    }
    s.push_str(
        r#"}

parser CacheParser(packet_in pkt, out headers_t hdr,
                   inout metadata_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etype) { 0x0800: parse_ipv4; default: accept; } }
    state parse_ipv4 { pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.proto) { 17: parse_udp; default: accept; } }
    state parse_udp { pkt.extract(hdr.udp);
        transition select(hdr.udp.dport) { 9047: parse_cache; default: accept; } }
    state parse_cache { pkt.extract(hdr.cache);
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!("        pkt.extract(hdr.val{i});\n"));
    }
    s.push_str("        transition accept; }\n}\n\n");
    s.push_str(&format!("Register<bit<1>, bit<32>>({slots}) Valid;\n"));
    for i in 0..val_words {
        s.push_str(&format!("Register<bit<32>, bit<32>>({slots}) Value{i};\n"));
    }
    s.push_str(
        r#"
control CacheIngress(inout headers_t hdr, inout metadata_t meta,
                     inout standard_metadata_t sm) {
    action CacheHit(bit<8> idx) { meta.hit = 1; meta.idx = idx; }
    action CacheMiss() { meta.hit = 0; }
    table CacheLookup {
        key = { hdr.cache.key: exact; }
        actions = { CacheHit; CacheMiss; }
        default_action = CacheMiss();
"#,
    );
    s.push_str(&format!("        size = {slots};\n    }}\n"));
    s.push_str(
        r#"    action ReadValid() { Valid.read(meta.valid, (bit<32>)meta.idx); }
    table CacheValid { actions = { ReadValid; } default_action = ReadValid(); }
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!(
            "    action Read{i}() {{ Value{i}.read(hdr.val{i}.v, (bit<32>)meta.idx); }}\n\
                 table ReadT{i} {{ actions = {{ Read{i}; }} default_action = Read{i}(); }}\n"
        ));
    }
    s.push_str(
        r#"    action ipv4_forward(bit<48> mac, bit<9> port) {
        hdr.ethernet.dst = mac; sm.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }
    action ipv4_drop() { mark_to_drop(sm); }
    table ipv4_lpm {
        key = { hdr.ipv4.dst: lpm; }
        actions = { ipv4_forward; ipv4_drop; }
        default_action = ipv4_drop(); size = 1024;
    }
    action reflect() {
        bit<32> tmp_ip = hdr.ipv4.src; hdr.ipv4.src = hdr.ipv4.dst; hdr.ipv4.dst = tmp_ip;
        bit<16> tmp_p = hdr.udp.sport; hdr.udp.sport = hdr.udp.dport; hdr.udp.dport = tmp_p;
        sm.egress_spec = sm.ingress_port;
    }
    apply {
        if (hdr.cache.isValid() && hdr.cache.update == 0) {
            CacheLookup.apply();
            if (meta.hit == 1) {
                CacheValid.apply();
                if (meta.valid == 1) {
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!("                    ReadT{i}.apply();\n"));
    }
    s.push_str(
        r#"                    reflect();
                    return;
                }
            }
        }
        ipv4_lpm.apply();
    }
}

control CacheDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet); pkt.emit(hdr.ipv4); pkt.emit(hdr.udp);
        pkt.emit(hdr.cache);
"#,
    );
    for i in 0..val_words {
        s.push_str(&format!("        pkt.emit(hdr.val{i});\n"));
    }
    s.push_str(
        r#"    }
}

control NoChecksum(inout headers_t hdr, inout metadata_t meta) { apply {} }
control NoEgress(inout headers_t hdr, inout metadata_t meta,
                 inout standard_metadata_t sm) { apply {} }

V1Switch(CacheParser(), NoChecksum(), CacheIngress(), NoEgress(),
         NoChecksum(), CacheDeparser()) main;
"#,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handwritten_p4_is_substantial() {
        let p4 = handwritten_netcache_p4(256, 32);
        let lines = ncl_p4::p4emit::effective_lines(&p4);
        assert!(lines > 100, "handwritten P4 has {lines} lines");
        assert!(p4.contains("CacheLookup"));
        assert!(p4.contains("Read31"));
    }
}
