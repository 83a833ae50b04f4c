//! The NCL scalar type system and a dynamically-typed scalar [`Value`].
//!
//! NCL extends C, so values follow C semantics: fixed-width two's
//! complement integers with wrapping arithmetic on overflow (the behaviour
//! every deployed P4 target implements for its ALUs), explicit casts that
//! truncate or sign/zero-extend, and a `bool` that converts to `0`/`1`.
//!
//! A [`Value`] packs the bits into a `u64` next to its [`ScalarType`]; all
//! arithmetic masks the result back to the type's width. Both the IR
//! reference interpreter and the PISA simulator compute on `Value`s, which
//! is what makes differential testing of the compiler meaningful.

use std::fmt;

/// The scalar types of NCL (the C subset used by network kernels).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ScalarType {
    /// `bool` — stored as one byte on the wire, values 0 or 1.
    Bool,
    /// `uint8_t` / `unsigned char`.
    U8,
    /// `uint16_t`.
    U16,
    /// `uint32_t` / `unsigned`.
    U32,
    /// `uint64_t`.
    U64,
    /// `int8_t` / `char` (NCL `char` is signed, as on every PISA target).
    I8,
    /// `int16_t`.
    I16,
    /// `int32_t` / `int`.
    I32,
    /// `int64_t`.
    I64,
}

impl ScalarType {
    /// All scalar types, handy for exhaustive tests.
    pub const ALL: [ScalarType; 9] = [
        ScalarType::Bool,
        ScalarType::U8,
        ScalarType::U16,
        ScalarType::U32,
        ScalarType::U64,
        ScalarType::I8,
        ScalarType::I16,
        ScalarType::I32,
        ScalarType::I64,
    ];

    /// Size of the type in bytes (as stored in windows and registers).
    pub fn size(self) -> usize {
        match self {
            ScalarType::Bool | ScalarType::U8 | ScalarType::I8 => 1,
            ScalarType::U16 | ScalarType::I16 => 2,
            ScalarType::U32 | ScalarType::I32 => 4,
            ScalarType::U64 | ScalarType::I64 => 8,
        }
    }

    /// Width in bits.
    pub fn bits(self) -> u32 {
        self.size() as u32 * 8
    }

    /// Whether the type is a signed integer.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::I64
        )
    }

    /// Bit mask covering the type's width.
    pub fn mask(self) -> u64 {
        match self.bits() {
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// The C spelling of the type, used by diagnostics and P4 emission.
    fn c_name(self) -> &'static str {
        match self {
            ScalarType::Bool => "bool",
            ScalarType::U8 => "uint8_t",
            ScalarType::U16 => "uint16_t",
            ScalarType::U32 => "uint32_t",
            ScalarType::U64 => "uint64_t",
            ScalarType::I8 => "int8_t",
            ScalarType::I16 => "int16_t",
            ScalarType::I32 => "int32_t",
            ScalarType::I64 => "int64_t",
        }
    }

    /// The unsigned type of the same width (P4 `bit<N>` has no sign; the
    /// compiler lowers signed NCL ops onto unsigned fields).
    pub fn unsigned(self) -> ScalarType {
        match self {
            ScalarType::Bool | ScalarType::U8 | ScalarType::I8 => ScalarType::U8,
            ScalarType::U16 | ScalarType::I16 => ScalarType::U16,
            ScalarType::U32 | ScalarType::I32 => ScalarType::U32,
            ScalarType::U64 | ScalarType::I64 => ScalarType::U64,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// A dynamically-typed NCL scalar: raw bits plus a [`ScalarType`].
///
/// Invariant: `bits & !ty.mask() == 0` — the payload never carries stale
/// high bits, so equality on `Value` is value equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    ty: ScalarType,
    bits: u64,
}

/// Binary operators shared by the IR and the PISA action ALU.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (C semantics; division by zero yields 0 on PISA targets
    /// and we mirror that here so both executions agree).
    Div,
    /// Remainder (0 when the divisor is 0, matching [`BinOp::Div`]).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amounts are taken modulo the bit width, the
    /// behaviour of switch ALUs).
    Shl,
    /// Right shift: logical for unsigned operands, arithmetic for signed.
    Shr,
    /// Equality; yields `Bool`.
    Eq,
    /// Inequality; yields `Bool`.
    Ne,
    /// Less-than in the left operand's signedness; yields `Bool`.
    Lt,
    /// Less-or-equal; yields `Bool`.
    Le,
    /// Greater-than; yields `Bool`.
    Gt,
    /// Greater-or-equal; yields `Bool`.
    Ge,
}

impl BinOp {
    /// Whether the operator produces a `Bool` regardless of operand types.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// C spelling of the operator (for diagnostics and P4 emission).
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Two's complement negation.
    Neg,
    /// Bitwise complement within the type's width.
    BitNot,
    /// Logical not; yields `Bool`.
    Not,
}

impl Value {
    /// Builds a value from raw bits, masking to the type's width.
    pub fn new(ty: ScalarType, bits: u64) -> Self {
        let bits = match ty {
            // bool normalizes any nonzero payload to 1, like C.
            ScalarType::Bool => (bits != 0) as u64,
            _ => bits & ty.mask(),
        };
        Value { ty, bits }
    }

    /// A value from bits already canonical for `ty` — within its width,
    /// 0 or 1 for `bool` — as packed register lanes hold them.
    #[inline]
    pub(crate) fn from_canonical(ty: ScalarType, bits: u64) -> Self {
        debug_assert_eq!(Value::new(ty, bits).bits, bits, "{ty} lane out of range");
        Value { ty, bits }
    }

    /// A zero of the given type.
    pub fn zero(ty: ScalarType) -> Self {
        Value { ty, bits: 0 }
    }

    /// Convenience constructors.
    pub fn bool(b: bool) -> Self {
        Value::new(ScalarType::Bool, b as u64)
    }

    /// `uint32_t` literal.
    pub fn u32(v: u32) -> Self {
        Value::new(ScalarType::U32, v as u64)
    }

    /// `uint64_t` literal.
    pub fn u64(v: u64) -> Self {
        Value::new(ScalarType::U64, v)
    }

    /// `int` literal.
    pub fn i32(v: i32) -> Self {
        Value::new(ScalarType::I32, v as u32 as u64)
    }

    /// `int64_t` literal.
    pub fn i64(v: i64) -> Self {
        Value::new(ScalarType::I64, v as u64)
    }

    /// The value's type.
    pub fn ty(self) -> ScalarType {
        self.ty
    }

    /// Raw bits (zero-extended to 64).
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The value interpreted in its own signedness, widened to `i128` so
    /// every scalar fits losslessly.
    pub fn as_i128(self) -> i128 {
        if self.ty.is_signed() {
            let shift = 64 - self.ty.bits();
            (((self.bits << shift) as i64) >> shift) as i128
        } else {
            self.bits as i128
        }
    }

    /// Truthiness for conditions, C-style: nonzero is true.
    pub fn is_truthy(self) -> bool {
        self.bits != 0
    }

    /// Casts to another scalar type: truncation or sign/zero extension,
    /// exactly C's conversion rules for integer types.
    pub fn cast(self, to: ScalarType) -> Value {
        if to == ScalarType::Bool {
            return Value::bool(self.bits != 0);
        }
        let wide = self.as_i128() as u64; // sign-extends signed sources
        Value::new(to, wide)
    }

    /// Applies a binary operator. Operands must share a type (the
    /// frontend inserts casts); comparisons yield `Bool`.
    ///
    /// # Panics
    /// Panics if the operand types differ — that is a compiler bug, not a
    /// user error, by the time values meet.
    pub fn binop(op: BinOp, a: Value, b: Value) -> Value {
        assert_eq!(
            a.ty, b.ty,
            "binop {op:?} on mismatched types {:?} vs {:?}",
            a.ty, b.ty
        );
        let ty = a.ty;
        if op.is_comparison() {
            let (x, y) = (a.as_i128(), b.as_i128());
            let r = match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            };
            return Value::bool(r);
        }
        let bits = match op {
            BinOp::Add => a.bits.wrapping_add(b.bits),
            BinOp::Sub => a.bits.wrapping_sub(b.bits),
            BinOp::Mul => a.bits.wrapping_mul(b.bits),
            BinOp::Div => {
                if b.bits == 0 {
                    0
                } else if ty.is_signed() {
                    (a.as_i128() / b.as_i128()) as u64
                } else {
                    a.bits / b.bits
                }
            }
            BinOp::Rem => {
                if b.bits == 0 {
                    0
                } else if ty.is_signed() {
                    (a.as_i128() % b.as_i128()) as u64
                } else {
                    a.bits % b.bits
                }
            }
            BinOp::And => a.bits & b.bits,
            BinOp::Or => a.bits | b.bits,
            BinOp::Xor => a.bits ^ b.bits,
            BinOp::Shl => a.bits.wrapping_shl(b.bits as u32 % ty.bits()),
            BinOp::Shr => {
                let sh = b.bits as u32 % ty.bits();
                if ty.is_signed() {
                    ((a.as_i128() as i64) >> sh) as u64
                } else {
                    a.bits >> sh
                }
            }
            _ => unreachable!(),
        };
        Value::new(ty, bits)
    }

    /// Applies a unary operator.
    pub fn unop(op: UnOp, a: Value) -> Value {
        match op {
            UnOp::Neg => Value::new(a.ty, a.bits.wrapping_neg()),
            // `~bool` never reaches here from NCL (C promotes to int
            // first); at the value level the complement of a bool is
            // its logical complement.
            UnOp::BitNot if a.ty == ScalarType::Bool => Value::bool(a.bits == 0),
            UnOp::BitNot => Value::new(a.ty, !a.bits),
            UnOp::Not => Value::bool(a.bits == 0),
        }
    }

    /// Serializes the value into `buf` using the given byte order
    /// (windows travel big-endian on the wire; host memory is native).
    ///
    /// # Panics
    /// Panics if `buf.len() != self.ty().size()`.
    pub fn write_be(self, buf: &mut [u8]) {
        let n = self.ty.size();
        assert_eq!(buf.len(), n, "buffer size mismatch for {}", self.ty);
        buf.copy_from_slice(&self.bits.to_be_bytes()[8 - n..]);
    }

    /// Deserializes a big-endian value of type `ty` from `buf`.
    ///
    /// # Panics
    /// Panics if `buf.len() != ty.size()`.
    pub fn read_be(ty: ScalarType, buf: &[u8]) -> Value {
        let n = ty.size();
        assert_eq!(buf.len(), n, "buffer size mismatch for {ty}");
        let mut raw = [0u8; 8];
        raw[8 - n..].copy_from_slice(buf);
        Value::new(ty, u64::from_be_bytes(raw))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ty == ScalarType::Bool {
            write!(f, "{}", self.bits != 0)
        } else if self.ty.is_signed() {
            write!(f, "{}", self.as_i128())
        } else {
            write!(f, "{}", self.bits)
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self, self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_on_construction() {
        assert_eq!(Value::new(ScalarType::U8, 0x1_FF).bits(), 0xFF);
        assert_eq!(Value::new(ScalarType::Bool, 42).bits(), 1);
        assert_eq!(Value::new(ScalarType::U16, 0xFFFF_0001).bits(), 1);
    }

    #[test]
    fn wrapping_add_sub() {
        let a = Value::new(ScalarType::U8, 250);
        let b = Value::new(ScalarType::U8, 10);
        assert_eq!(Value::binop(BinOp::Add, a, b).bits(), 4);
        let z = Value::zero(ScalarType::U8);
        assert_eq!(Value::binop(BinOp::Sub, z, b).bits(), 246);
    }

    #[test]
    fn signed_comparison() {
        let a = Value::new(ScalarType::I8, 0xFF); // -1
        let b = Value::new(ScalarType::I8, 1);
        assert!(Value::binop(BinOp::Lt, a, b).is_truthy());
        // Same bits unsigned compare the other way.
        let a = Value::new(ScalarType::U8, 0xFF);
        let b = Value::new(ScalarType::U8, 1);
        assert!(Value::binop(BinOp::Gt, a, b).is_truthy());
    }

    #[test]
    fn signed_div_rem() {
        let a = Value::i32(-7);
        let b = Value::i32(2);
        assert_eq!(Value::binop(BinOp::Div, a, b).as_i128(), -3);
        assert_eq!(Value::binop(BinOp::Rem, a, b).as_i128(), -1);
    }

    #[test]
    fn div_by_zero_is_zero() {
        let a = Value::u32(9);
        let z = Value::u32(0);
        assert_eq!(Value::binop(BinOp::Div, a, z).bits(), 0);
        assert_eq!(Value::binop(BinOp::Rem, a, z).bits(), 0);
    }

    #[test]
    fn arithmetic_shift_right() {
        let a = Value::new(ScalarType::I16, 0x8000u64); // -32768
        let one = Value::new(ScalarType::I16, 1);
        let r = Value::binop(BinOp::Shr, a, one);
        assert_eq!(r.as_i128(), -16384);
        let ua = Value::new(ScalarType::U16, 0x8000u64);
        let uone = Value::new(ScalarType::U16, 1);
        assert_eq!(Value::binop(BinOp::Shr, ua, uone).bits(), 0x4000);
    }

    #[test]
    fn shift_amount_wraps_to_width() {
        let a = Value::u32(1);
        let sh = Value::u32(33); // 33 % 32 == 1
        assert_eq!(Value::binop(BinOp::Shl, a, sh).bits(), 2);
    }

    #[test]
    fn casts_sign_extend_and_truncate() {
        let v = Value::new(ScalarType::I8, 0x80); // -128
        assert_eq!(v.cast(ScalarType::I32).as_i128(), -128);
        assert_eq!(v.cast(ScalarType::U16).bits(), 0xFF80);
        let w = Value::u32(0x1_2345_usize as u32);
        assert_eq!(w.cast(ScalarType::U8).bits(), 0x45);
        assert_eq!(Value::u32(2).cast(ScalarType::Bool).bits(), 1);
    }

    #[test]
    fn unops() {
        assert_eq!(Value::unop(UnOp::Neg, Value::i32(5)).as_i128(), -5);
        assert_eq!(
            Value::unop(UnOp::BitNot, Value::new(ScalarType::U8, 0x0F)).bits(),
            0xF0
        );
        assert!(Value::unop(UnOp::Not, Value::u32(0)).is_truthy());
        assert!(!Value::unop(UnOp::Not, Value::u32(3)).is_truthy());
    }

    #[test]
    fn be_roundtrip_all_types() {
        for ty in ScalarType::ALL {
            let v = Value::new(ty, 0xA5A5_A5A5_A5A5_A5A5);
            let mut buf = vec![0u8; ty.size()];
            v.write_be(&mut buf);
            assert_eq!(Value::read_be(ty, &buf), v, "type {ty}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(Value::i32(-3).to_string(), "-3");
        assert_eq!(Value::u32(3).to_string(), "3");
        assert_eq!(Value::bool(true).to_string(), "true");
        assert_eq!(format!("{:?}", Value::u32(7)), "7:uint32_t");
    }
}
