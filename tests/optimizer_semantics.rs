//! The optimization pipeline (const-fold, copy propagation, DCE, branch
//! simplification, block merging) must preserve interpreter semantics
//! even where every local is live at the end.
//!
//! The generated programs of the differential harness read their
//! locals `x` and `y` only where an expression happens to name them, so
//! a pass that drops or misplaces an assignment to a local can go
//! unobserved. Here each program ends by writing `x ^ y` to `data[0]`,
//! making the locals' final values part of the output window; the
//! harness compares the raw lowered IR with the optimized IR (and the
//! engines built from it) after every window, and fails if the
//! optimizer grows a kernel.

#[path = "common/gen.rs"]
mod gen;

use gen::engines::check_engines;
use gen::{case, gen_case};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimize_preserves_interpreter_semantics(
        drawn in gen_case(),
        bias in any::<i32>(),
    ) {
        let body = format!("{}\n    data[0] = x ^ y;", drawn.body);
        let c = case(drawn.shape, &body, drawn.windows, bias);
        check_engines(&c.src, &c.config, &c.windows);
    }
}
