//! Property tests for window cutting: [`WindowSpec::window_at`] is the
//! one place that knows how a window is cut, and [`WindowSpec::split`]
//! is defined through it — so cutting window `i` on demand must give
//! exactly what splitting the whole invocation gives at index `i`.

use c3::{Mask, ScalarType, WindowSpec};
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = ScalarType> {
    prop::sample::select(ScalarType::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over multi-array masks and short tail windows: `window_at(a, i)`
    /// equals `split(a)[i]` for every `i`, and is `None` past the end.
    #[test]
    fn window_at_matches_split(
        params in prop::collection::vec((arb_type(), 1u16..6, any::<u8>()), 1..4),
        nwin in 0usize..6,
    ) {
        let spec = WindowSpec::new(
            params.iter().map(|p| p.0).collect(),
            Mask::new(params.iter().map(|p| p.1).collect::<Vec<u16>>()),
        )
        .unwrap();
        // Every array tiles `nwin` times; the last window of each holds
        // between one element and a full mask entry.
        let arrays: Vec<Vec<u8>> = params
            .iter()
            .enumerate()
            .map(|(i, &(ty, mask, tail))| {
                let mask = mask as usize;
                let elems = match nwin {
                    0 => 0,
                    n => (n - 1) * mask + 1 + tail as usize % mask,
                };
                (0..elems * ty.size()).map(|b| (b * 7 + i) as u8).collect()
            })
            .collect();
        let slices: Vec<&[u8]> = arrays.iter().map(|a| &a[..]).collect();

        let all = spec.split(&slices).unwrap();
        prop_assert_eq!(all.len(), nwin);
        prop_assert_eq!(spec.window_count(&slices), Ok(nwin));
        for (i, w) in all.iter().enumerate() {
            prop_assert_eq!(spec.window_at(&slices, i), Some(w.clone()));
            prop_assert_eq!(w.seq as usize, i);
            prop_assert_eq!(w.last, i + 1 == nwin);
        }
        prop_assert_eq!(spec.window_at(&slices, nwin), None);
        prop_assert_eq!(spec.window_at(&slices, nwin + 7), None);
        let lens: Vec<usize> = arrays.iter().map(Vec::len).collect();
        prop_assert_eq!(spec.reassemble(&all, &lens).unwrap(), arrays);
    }
}
