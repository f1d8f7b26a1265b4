//! Property-based tests on vision invariants.

use crate::morphology::reference;
use crate::{
    connected_components, dilate, erode, frame_difference, opening, BackgroundSubtractor,
    BinaryFrame, GrayFrame, GridMapper, SegmentBuffer,
};
use proptest::prelude::*;
use safecross_tensor::Tensor;

/// Widths 1–200, with the word-boundary cases drawn six times as often.
fn arb_width() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
    (0usize..200 + 6 * EDGES.len()).prop_map(|i| match i.checked_sub(200) {
        None => i + 1,
        Some(edge) => EDGES[edge % EDGES.len()],
    })
}

/// Masks up to 200 × 40 at densities from sparse speckle to nearly full
/// (a half-set random mask erodes to nothing and would test little).
fn arb_wide_mask() -> impl Strategy<Value = BinaryFrame> {
    (arb_width(), 1usize..41, 0usize..4).prop_flat_map(|(w, h, density)| {
        let cutoff = [16u8, 128, 232, 252][density];
        proptest::collection::vec(any::<u8>(), w * h).prop_map(move |px| {
            let mut m = BinaryFrame::new(w, h);
            for (i, p) in px.into_iter().enumerate() {
                m.put(i % w, i / w, p < cutoff);
            }
            m
        })
    })
}

/// `count` is a popcount of every stored word, so it equals the number
/// of `get`-visible bits exactly when the padding bits are zero.
fn padding_is_zero(m: &BinaryFrame) -> bool {
    let visible = (0..m.height())
        .flat_map(|y| (0..m.width()).map(move |x| (x, y)))
        .filter(|&(x, y)| m.get(x, y))
        .count();
    m.count() == visible
}

/// Packed `erode` / `dilate` / `opening` against the per-pixel reference.
fn check_morphology(m: &BinaryFrame, radius: usize) -> Result<(), TestCaseError> {
    for (name, packed, per_pixel) in [
        ("erode", erode(m, radius), reference::erode(m, radius)),
        ("dilate", dilate(m, radius), reference::dilate(m, radius)),
        ("opening", opening(m, radius), reference::opening(m, radius)),
    ] {
        prop_assert!(padding_is_zero(&packed), "{name} r={radius} set a padding bit");
        prop_assert!(packed == per_pixel, "{name} r={radius}: {packed:?} vs {per_pixel:?}");
    }
    Ok(())
}

fn arb_mask() -> impl Strategy<Value = BinaryFrame> {
    (3usize..12, 3usize..12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<bool>(), w * h).prop_map(move |bits| {
            let mut m = BinaryFrame::new(w, h);
            for (i, b) in bits.into_iter().enumerate() {
                m.put(i % w, i / w, b);
            }
            m
        })
    })
}

fn arb_frame() -> impl Strategy<Value = GrayFrame> {
    (3usize..10, 3usize..10).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |px| GrayFrame::from_pixels(w, h, px))
    })
}

proptest! {
    #[test]
    fn erosion_is_anti_extensive(m in arb_mask()) {
        let e = erode(&m, 1);
        // Every set pixel of the erosion was set in the input.
        for y in 0..m.height() {
            for x in 0..m.width() {
                if e.get(x, y) {
                    prop_assert!(m.get(x, y));
                }
            }
        }
        prop_assert!(e.count() <= m.count());
    }

    #[test]
    fn dilation_is_extensive(m in arb_mask()) {
        let d = dilate(&m, 1);
        for y in 0..m.height() {
            for x in 0..m.width() {
                if m.get(x, y) {
                    prop_assert!(d.get(x, y));
                }
            }
        }
        prop_assert!(d.count() >= m.count());
    }

    #[test]
    fn opening_is_anti_extensive_and_idempotent(m in arb_mask()) {
        let o = opening(&m, 1);
        prop_assert!(o.count() <= m.count());
        prop_assert_eq!(opening(&o, 1), o);
    }

    #[test]
    fn morphology_is_monotone(m in arb_mask()) {
        // Removing pixels never grows the eroded result.
        let mut smaller = m.clone();
        'outer: for y in 0..m.height() {
            for x in 0..m.width() {
                if smaller.get(x, y) {
                    smaller.put(x, y, false);
                    break 'outer;
                }
            }
        }
        let e_big = erode(&m, 1);
        let e_small = erode(&smaller, 1);
        for y in 0..m.height() {
            for x in 0..m.width() {
                if e_small.get(x, y) {
                    prop_assert!(e_big.get(x, y));
                }
            }
        }
    }

    #[test]
    fn component_areas_sum_to_mask_count(m in arb_mask()) {
        let comps = connected_components(&m, 1);
        let total: usize = comps.iter().map(|c| c.area).sum();
        prop_assert_eq!(total, m.count());
    }

    #[test]
    fn component_bounding_boxes_contain_area(m in arb_mask()) {
        for c in connected_components(&m, 1) {
            prop_assert!(c.area <= c.width() * c.height());
            prop_assert!(c.min_x <= c.max_x && c.min_y <= c.max_y);
            prop_assert!(c.max_x < m.width() && c.max_y < m.height());
        }
    }

    #[test]
    fn frame_difference_is_symmetric(a in arb_frame()) {
        let b = GrayFrame::from_pixels(
            a.width(), a.height(),
            a.pixels().iter().map(|&p| p.wrapping_add(40)).collect(),
        );
        prop_assert_eq!(
            frame_difference(&a, &b, 20.0).count(),
            frame_difference(&b, &a, 20.0).count()
        );
    }

    #[test]
    fn segment_buffer_never_emits_short_segments(
        capacity in 1usize..12,
        pushes in 0usize..30,
    ) {
        // The classifier must never see a clip shorter than the
        // configured segment length: `as_clip` is `None` until exactly
        // `capacity` frames arrived, and full-length forever after.
        let mut buf = SegmentBuffer::new(capacity);
        for i in 0..pushes {
            prop_assert_eq!(buf.len(), i.min(capacity));
            match buf.as_clip() {
                Some(clip) => {
                    prop_assert!(i >= capacity, "clip emitted after only {i} frames");
                    prop_assert_eq!(clip.dims(), &[1, capacity, 2, 2]);
                }
                None => prop_assert!(i < capacity, "full buffer emitted nothing"),
            }
            buf.push(Tensor::full(&[2, 2], i as f32));
        }
        // After the stream: the buffer slides, keeping the newest frames.
        if pushes >= capacity {
            let clip = buf.as_clip().expect("buffer is full");
            prop_assert_eq!(clip.dims(), &[1, capacity, 2, 2]);
            // Oldest retained frame is `pushes - capacity`.
            prop_assert_eq!(clip.at(&[0, 0, 0, 0]), (pushes - capacity) as f32);
            prop_assert_eq!(clip.at(&[0, capacity - 1, 0, 0]), (pushes - 1) as f32);
        } else {
            prop_assert!(buf.as_clip().is_none());
        }
    }

    #[test]
    fn grid_values_are_densities(m in arb_mask()) {
        let grid = GridMapper::new(3, 3).map(&m);
        prop_assert!(grid.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Empty mask -> zero grid; full mask -> all-ones grid.
        if m.count() == 0 {
            prop_assert_eq!(grid.sum(), 0.0);
        }
        if m.count() == m.width() * m.height() {
            prop_assert!(grid.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        }
    }

    #[test]
    fn packed_morphology_matches_the_per_pixel_reference(
        m in arb_wide_mask(),
        radius in 0usize..4,
    ) {
        check_morphology(&m, radius)?;
    }

    #[test]
    fn packed_morphology_matches_on_full_and_border_only_masks(
        w in arb_width(),
        h in 1usize..41,
        radius in 0usize..4,
    ) {
        // All set: erosion must eat exactly the border ring (outside is
        // background). Border only: everything touches the frame edge.
        let mut full = BinaryFrame::new(w, h);
        let mut border = BinaryFrame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                full.put(x, y, true);
                border.put(x, y, x == 0 || y == 0 || x == w - 1 || y == h - 1);
            }
        }
        check_morphology(&full, radius)?;
        check_morphology(&border, radius)?;
    }

    #[test]
    fn packed_background_subtraction_matches_the_per_pixel_reference(
        sequence in (arb_width(), 1usize..7).prop_flat_map(|(w, h)| {
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), w * h), 1..8)
                .prop_map(move |frames| (w, h, frames))
        }),
        alpha in 0.01f32..1.0,
        threshold in 0.0f32..80.0,
        reset_at in 0usize..8,
    ) {
        let (w, h, frames) = sequence;
        let mut packed = BackgroundSubtractor::new(w, h, alpha, threshold);
        let mut per_pixel = packed.clone();
        // A recycled mask with every bit set: `apply_into` must overwrite
        // all of it, on the initialising frame too.
        let mut mask = BinaryFrame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                mask.put(x, y, true);
            }
        }
        for (i, px) in frames.into_iter().enumerate() {
            if i == reset_at {
                packed.reset();
                per_pixel.reset();
            }
            let frame = GrayFrame::from_pixels(w, h, px);
            packed.apply_into(&frame, &mut mask);
            prop_assert!(padding_is_zero(&mask), "frame {i} set a padding bit");
            prop_assert!(mask == per_pixel.apply_reference(&frame), "mask of frame {i}");
            prop_assert!(packed.background() == per_pixel.background(), "model after frame {i}");
        }
    }

    #[test]
    fn packed_remap_matches_the_per_pixel_reference(
        m in arb_wide_mask(),
        grid_width in 1usize..48,
        grid_height in 1usize..48,
    ) {
        // Grids both coarser and finer than the mask (cells then repeat
        // source pixels), compared as bits.
        let mapper = GridMapper::new(grid_width, grid_height);
        let (packed, per_pixel) = (mapper.map(&m), mapper.map_reference(&m));
        prop_assert_eq!(packed.dims(), per_pixel.dims());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&packed), bits(&per_pixel));
    }

    #[test]
    fn put_touches_one_bit_and_density_counts_the_clamped_rectangle(
        w in arb_width(),
        h in 1usize..9,
        writes in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..300),
        rect in (0usize..210, 0usize..10, 0usize..210, 0usize..10),
        unbounded in any::<bool>(),
    ) {
        let mut m = BinaryFrame::new(w, h);
        let mut model = vec![false; w * h];
        for (x, y, value) in writes {
            let (x, y) = (x % w, y % h);
            m.put(x, y, value);
            model[y * w + x] = value;
        }
        for y in 0..h {
            for x in 0..w {
                prop_assert!(m.get(x, y) == model[y * w + x], "({x}, {y})");
            }
        }
        prop_assert!(padding_is_zero(&m));

        // `x0 + w` must saturate, not overflow.
        let (x0, y0, rw, rh) = rect;
        let (rw, rh) = if unbounded { (usize::MAX, usize::MAX) } else { (rw, rh) };
        let (x1, y1) = (x0.saturating_add(rw).min(w), y0.saturating_add(rh).min(h));
        let expected = if x0 >= x1 || y0 >= y1 {
            0.0
        } else {
            let set = (y0..y1)
                .flat_map(|y| (x0..x1).map(move |x| y * w + x))
                .filter(|&i| model[i])
                .count();
            set as f32 / ((x1 - x0) * (y1 - y0)) as f32
        };
        prop_assert_eq!(m.density_in(x0, y0, rw, rh).to_bits(), expected.to_bits());
    }
}
