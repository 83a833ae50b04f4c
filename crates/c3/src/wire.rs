//! Byte-order helpers shared by every wire format in the workspace.
//!
//! All protocol fields travel big-endian (network byte order). These
//! helpers panic on short buffers in both directions: the caller sizes
//! the buffer, or reads behind a length check (the smoltcp idiom).

/// Reads a big-endian `u16` at `off`.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Reads a big-endian `u32` at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Writes a big-endian `u16` at `off`.
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Writes a big-endian `u32` at `off`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_roundtrip() {
        let mut b = [0u8; 4];
        put_u16(&mut b, 1, 0xBEEF);
        assert_eq!(b, [0, 0xBE, 0xEF, 0]);
        assert_eq!(get_u16(&b, 1), 0xBEEF);
    }

    #[test]
    fn u32_roundtrip() {
        let mut b = [0u8; 4];
        put_u32(&mut b, 0, 0xDEAD_BEEF);
        assert_eq!(get_u32(&b, 0), 0xDEAD_BEEF);
    }
}
