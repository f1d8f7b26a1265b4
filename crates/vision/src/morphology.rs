//! Mathematical morphology on binary masks.
//!
//! A square `(2r+1) × (2r+1)` window is the product of a horizontal and
//! a vertical run, so erosion and dilation are **separable**: a
//! horizontal pass (each bit ANDed / ORed with its `r` neighbours on
//! either side) followed by a vertical pass (each row ANDed / ORed with
//! the `r` rows above and below) visits exactly the window's pixels. On
//! the packed [`BinaryFrame`] both passes work a word — 64 pixels — at a
//! time: horizontal neighbours are the row shifted by `k` bits with the
//! carry taken from the neighbouring word, vertical neighbours are whole
//! rows. "Outside the frame is background" needs no test anywhere: the
//! shifts fill with zeros at the row ends (the padding bits are zero and
//! a word past the end reads as zero) and a missing row is a row of
//! zeros, which clears an erosion and adds nothing to a dilation.

use crate::BinaryFrame;

/// Erosion with a square structuring element of `radius` (so the window is
/// `(2r+1) x (2r+1)`). A bit survives only if its whole window is set;
/// pixels whose window leaves the frame are cleared.
///
/// ```
/// use safecross_vision::{erode, BinaryFrame};
///
/// let mut m = BinaryFrame::new(5, 5);
/// m.put(2, 2, true); // isolated noise pixel
/// assert_eq!(erode(&m, 1).count(), 0);
/// ```
pub fn erode(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
    let mut out = mask.clone();
    erode_in_place(&mut out, radius, &mut BinaryFrame::new(mask.width(), mask.height()));
    out
}

/// Dilation with a square structuring element of `radius`: a bit is set if
/// any bit in its window is set.
pub fn dilate(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
    let mut out = mask.clone();
    dilate_in_place(&mut out, radius, &mut BinaryFrame::new(mask.width(), mask.height()));
    out
}

/// Morphological opening: erosion followed by dilation.
///
/// This is the paper's noise filter (Sec. III-B): single-pixel camera
/// noise is erased by the erosion and — being gone — cannot be re-grown
/// by the dilation, while large structures (vehicles) survive with their
/// shape approximately restored.
pub fn opening(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
    let mut out = mask.clone();
    opening_in_place(&mut out, radius, &mut BinaryFrame::new(mask.width(), mask.height()));
    out
}

/// [`opening`] of `mask` in place. `tmp` is a same-sized mask whose
/// content is irrelevant before and unspecified after; with it the
/// opening allocates nothing.
pub(crate) fn opening_in_place(mask: &mut BinaryFrame, radius: usize, tmp: &mut BinaryFrame) {
    erode_in_place(mask, radius, tmp);
    dilate_in_place(mask, radius, tmp);
}

fn erode_in_place(mask: &mut BinaryFrame, radius: usize, tmp: &mut BinaryFrame) {
    separable(mask, radius, tmp, |a, b| a & b);
}

fn dilate_in_place(mask: &mut BinaryFrame, radius: usize, tmp: &mut BinaryFrame) {
    separable(mask, radius, tmp, |a, b| a | b);
}

/// Horizontal pass `mask → tmp`, vertical pass `tmp → mask`, folding
/// neighbours with `op` (AND erodes, OR dilates). Whatever lies outside
/// the frame enters the fold as zeros.
fn separable(
    mask: &mut BinaryFrame,
    radius: usize,
    tmp: &mut BinaryFrame,
    op: impl Fn(u64, u64) -> u64,
) {
    assert!(
        (tmp.width(), tmp.height()) == (mask.width(), mask.height()),
        "scratch mask size mismatch"
    );
    let (stride, height, tail) = (mask.stride(), mask.height(), mask.tail_mask());
    // A neighbour further away than the frame is wide (tall) is outside
    // it for every pixel, so larger radii add nothing new.
    let (rx, ry) = (radius.min(mask.width()), radius.min(height));

    for (src, dst) in mask.rows().zip(tmp.rows_mut()) {
        for (i, out) in dst.iter_mut().enumerate() {
            let mut acc = src[i];
            for k in 1..=rx {
                acc = op(acc, op(shifted_up(src, i, k), shifted_down(src, i, k)));
            }
            *out = acc;
        }
        // An OR can carry set bits into the padding; an AND cannot.
        dst[stride - 1] &= tail;
    }

    for (y, dst) in mask.rows_mut().enumerate() {
        let (lo, hi) = (y.saturating_sub(ry), (y + ry).min(height - 1));
        let mut rows = tmp.rows().skip(lo).take(hi - lo + 1);
        dst.copy_from_slice(rows.next().expect("row y itself is in the frame"));
        for row in rows {
            for (d, &s) in dst.iter_mut().zip(row) {
                *d = op(*d, s);
            }
        }
        if hi - lo < 2 * ry {
            // Part of the window is above or below the frame: a row of
            // zeros, which clears an AND and leaves an OR as it is.
            for d in dst.iter_mut() {
                *d = op(*d, 0);
            }
        }
    }
}

/// Word `i` of `row` moved `k` pixels towards higher `x` (bit `b` of the
/// result is pixel `64·i + b − k`), zeros shifted in at the row start.
fn shifted_up(row: &[u64], i: usize, k: usize) -> u64 {
    let (words, bits) = (k / 64, k % 64);
    let at = |back: usize| i.checked_sub(back).map_or(0, |j| row[j]);
    match bits {
        0 => at(words),
        _ => at(words) << bits | at(words + 1) >> (64 - bits),
    }
}

/// Word `i` of `row` moved `k` pixels towards lower `x` (bit `b` of the
/// result is pixel `64·i + b + k`), zeros shifted in at the row end.
fn shifted_down(row: &[u64], i: usize, k: usize) -> u64 {
    let (words, bits) = (k / 64, k % 64);
    let at = |ahead: usize| row.get(i + ahead).copied().unwrap_or(0);
    match bits {
        0 => at(words),
        _ => at(words) >> bits | at(words + 1) << (64 - bits),
    }
}

/// The per-pixel definitions the word-wide passes replaced, kept as the
/// reference the unit tests and proptests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::BinaryFrame;

    pub(crate) fn erode(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
        if radius == 0 {
            return mask.clone();
        }
        let (w, h) = (mask.width(), mask.height());
        let mut out = BinaryFrame::new(w, h);
        let r = radius as isize;
        for y in 0..h as isize {
            'pix: for x in 0..w as isize {
                for dy in -r..=r {
                    for dx in -r..=r {
                        let (nx, ny) = (x + dx, y + dy);
                        if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                            continue 'pix; // border treated as background
                        }
                        if !mask.get(nx as usize, ny as usize) {
                            continue 'pix;
                        }
                    }
                }
                out.put(x as usize, y as usize, true);
            }
        }
        out
    }

    pub(crate) fn dilate(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
        if radius == 0 {
            return mask.clone();
        }
        let (w, h) = (mask.width(), mask.height());
        let mut out = BinaryFrame::new(w, h);
        let r = radius as isize;
        for y in 0..h as isize {
            for x in 0..w as isize {
                if !mask.get(x as usize, y as usize) {
                    continue;
                }
                for dy in -r..=r {
                    for dx in -r..=r {
                        let (nx, ny) = (x + dx, y + dy);
                        if nx >= 0 && ny >= 0 && nx < w as isize && ny < h as isize {
                            out.put(nx as usize, ny as usize, true);
                        }
                    }
                }
            }
        }
        out
    }

    pub(crate) fn opening(mask: &BinaryFrame, radius: usize) -> BinaryFrame {
        dilate(&erode(mask, radius), radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(w: usize, h: usize, x0: usize, y0: usize, bw: usize, bh: usize) -> BinaryFrame {
        let mut m = BinaryFrame::new(w, h);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                m.put(x, y, true);
            }
        }
        m
    }

    #[test]
    fn erode_shrinks_blocks() {
        let m = block(10, 10, 2, 2, 5, 5);
        let e = erode(&m, 1);
        assert_eq!(e.count(), 9); // 5x5 -> 3x3
        assert!(e.get(4, 4));
        assert!(!e.get(2, 2));
    }

    #[test]
    fn dilate_grows_blocks() {
        let m = block(10, 10, 4, 4, 2, 2);
        let d = dilate(&m, 1);
        assert_eq!(d.count(), 16); // 2x2 -> 4x4
        assert!(d.get(3, 3));
    }

    #[test]
    fn opening_removes_speckle_keeps_structure() {
        let mut m = block(12, 12, 2, 2, 6, 6);
        m.put(10, 10, true); // isolated noise
        m.put(0, 11, true); // more noise
        let o = opening(&m, 1);
        assert!(!o.get(10, 10));
        assert!(!o.get(0, 11));
        // The 6x6 block survives with substantial area.
        assert!(o.density_in(2, 2, 6, 6) > 0.8);
    }

    #[test]
    fn opening_is_idempotent() {
        let m = block(12, 12, 3, 3, 5, 4);
        let once = opening(&m, 1);
        let twice = opening(&once, 1);
        assert_eq!(once, twice);
    }

    #[test]
    fn zero_radius_is_identity() {
        let m = block(6, 6, 1, 1, 3, 3);
        assert_eq!(erode(&m, 0), m);
        assert_eq!(dilate(&m, 0), m);
    }

    #[test]
    fn erosion_dilation_duality_on_full_frame() {
        // Eroding an all-set mask clears only the border ring;
        // dilating it back refills everything.
        let mut m = BinaryFrame::new(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                m.put(x, y, true);
            }
        }
        let e = erode(&m, 1);
        assert_eq!(e.count(), 16); // interior 4x4
        assert_eq!(dilate(&e, 1).count(), 36);
    }
}
