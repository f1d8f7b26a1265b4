//! Weight serialisation: the SafeCross checkpoint format.
//!
//! One on-disk layout, magic `"SCNN"` (all integers little-endian): a
//! *manifest* of layer groups, then the f32 tensors in manifest order:
//!
//! ```text
//! magic "SCNN" | u32 version = 4
//! u32 model-name len | model-name bytes
//! u32 group count
//! per group: u32 name len | name bytes
//!            | u32 param count | per param: u32 name len | name bytes
//!            | u64 payload bytes | u64 content hash
//! u32 entry count
//! per entry: u32 name len | name bytes | u32 ndim | u32 dims... | f32 data...
//! ```
//!
//! The manifest is the contract with `safecross-modelswitch`: each group
//! records its real payload size (`4 * Σ elements`, the bytes a switch
//! must move over PCIe) and a content hash ([`safecross_tensor::blob`])
//! that the model registry uses to deduplicate identical groups across
//! checkpoints. Transmission payloads in the switch timeline are derived
//! from these manifest byte counts — not from hand-written descriptors
//! and not from the total file size. A checkpoint holds f32 weights
//! only: int8 weights are derived from them wherever a serving replica
//! is materialized (`Layer::set_precision`) and are never stored.
//!
//! [`save_grouped`] is the only writer and [`load_grouped`] the only
//! reader. The version word is 4 because three earlier formats existed
//! (a flat tensor list, this layout, and this layout followed by a
//! section of stored int8 copies); no file in any of them was ever
//! shipped, so the reader rejects them — like any other version word —
//! with [`SerializeError::Format`]. The reader treats the
//! file as untrusted: every count is bounded by the bytes left to hold
//! that many items before anything is allocated for it, and every
//! extent product is overflow-checked.

use safecross_tensor::{content_hash, Tensor};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SCNN";
const VERSION: u32 = 4;

/// Errors produced while reading a weight file.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a SafeCross weight file or is corrupted.
    Format(String),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Format(m) => write!(f, "invalid weight file: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            SerializeError::Format(_) => None,
        }
    }
}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// One layer group in a checkpoint manifest: a named, contiguous slice of the
/// state dictionary that moves as a unit during a model switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupManifest {
    /// Group name (e.g. `"fast1"`, `"head"`).
    pub name: String,
    /// Qualified names of the tensors in this group, in storage order.
    pub params: Vec<String>,
    /// Payload size in bytes (`4 *` total element count).
    pub bytes: usize,
    /// Content hash of the group's tensors (shapes + data, order
    /// sensitive, name insensitive) — see [`safecross_tensor::blob`].
    pub hash: u64,
}

/// The checkpoint manifest: a model name plus its ordered layer groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelManifest {
    /// Model identifier (e.g. a weather label or checkpoint name).
    pub model: String,
    /// Layer groups in activation/transmission order.
    pub groups: Vec<GroupManifest>,
}

impl ModelManifest {
    /// Total payload bytes across all groups.
    pub fn total_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.bytes).sum()
    }

    /// Total number of tensors across all groups.
    pub fn total_params(&self) -> usize {
        self.groups.iter().map(|g| g.params.len()).sum()
    }
}

/// Builds the manifest for in-memory groups without writing anything —
/// the same hashes and byte counts [`save_grouped`] would record.
pub fn manifest_for(model: &str, groups: &[(String, Vec<(String, Tensor)>)]) -> ModelManifest {
    ModelManifest {
        model: model.to_owned(),
        groups: groups
            .iter()
            .map(|(name, entries)| GroupManifest {
                name: name.clone(),
                params: entries.iter().map(|(n, _)| n.clone()).collect(),
                bytes: entries.iter().map(|(_, t)| t.len() * 4).sum(),
                hash: content_hash(entries.iter().map(|(_, t)| t)),
            })
            .collect(),
    }
}

fn write_str(f: &mut File, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    f.write_all(&(bytes.len() as u32).to_le_bytes())?;
    f.write_all(bytes)
}

fn write_entry(f: &mut File, name: &str, tensor: &Tensor) -> io::Result<()> {
    write_str(f, name)?;
    f.write_all(&(tensor.shape().ndim() as u32).to_le_bytes())?;
    for &d in tensor.dims() {
        f.write_all(&(d as u32).to_le_bytes())?;
    }
    for &v in tensor.data() {
        f.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Writes a grouped state dictionary to `path` and returns the manifest
/// that was recorded.
///
/// Groups are written in the given order; within a group, tensors keep
/// their order. That order is load-bearing: it is the order a
/// [`ModelSwitcher`](../safecross_modelswitch/struct.ModelSwitcher.html)
/// activates groups in.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn save_grouped(
    path: &Path,
    model: &str,
    groups: &[(String, Vec<(String, Tensor)>)],
) -> Result<ModelManifest, SerializeError> {
    let manifest = manifest_for(model, groups);
    let mut f = File::create(path)?;
    f.write_all(MAGIC)?;
    f.write_all(&VERSION.to_le_bytes())?;
    write_str(&mut f, model)?;
    f.write_all(&(manifest.groups.len() as u32).to_le_bytes())?;
    for g in &manifest.groups {
        write_str(&mut f, &g.name)?;
        f.write_all(&(g.params.len() as u32).to_le_bytes())?;
        for p in &g.params {
            write_str(&mut f, p)?;
        }
        f.write_all(&(g.bytes as u64).to_le_bytes())?;
        f.write_all(&g.hash.to_le_bytes())?;
    }
    let total: usize = groups.iter().map(|(_, e)| e.len()).sum();
    f.write_all(&(total as u32).to_le_bytes())?;
    for (_, entries) in groups {
        for (name, tensor) in entries {
            write_entry(&mut f, name, tensor)?;
        }
    }
    Ok(manifest)
}

/// Fewest bytes a length-prefixed name can occupy (an empty string is
/// just its length word); also the size of one recorded dim.
const WORD: usize = 4;
/// Fewest bytes a tensor entry can occupy: its name's length word plus
/// its `ndim` word.
const MIN_ENTRY: usize = 2 * WORD;
/// Fewest bytes a manifest group can occupy: name length word, param
/// count, payload bytes, content hash.
const MIN_GROUP: usize = 2 * WORD + 8 + 8;

struct Reader<'a> {
    buf: &'a [u8],
    cursor: usize,
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed; `cursor <= buf.len()` always holds.
    fn remaining(&self) -> usize {
        self.buf.len() - self.cursor
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        if n > self.remaining() {
            return Err(SerializeError::Format("unexpected end of file".into()));
        }
        let s = &self.buf[self.cursor..self.cursor + n];
        self.cursor += n;
        Ok(s)
    }

    fn take_u32(&mut self) -> Result<u32, SerializeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, SerializeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads the count of a list whose items occupy at least `min_item`
    /// bytes each and rejects it unless the bytes left could hold that
    /// many — so no caller sizes an allocation from a count the file
    /// cannot back.
    fn take_count(&mut self, min_item: usize, what: &str) -> Result<usize, SerializeError> {
        let count = self.take_u32()? as usize;
        if count > self.remaining() / min_item {
            return Err(SerializeError::Format(format!(
                "{what} count {count} cannot fit in the {} bytes left",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn take_str(&mut self) -> Result<String, SerializeError> {
        let len = self.take_u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| SerializeError::Format("non-utf8 name".into()))
    }

    fn take_dims(&mut self) -> Result<Vec<usize>, SerializeError> {
        let ndim = self.take_count(WORD, "dim")?;
        (0..ndim).map(|_| Ok(self.take_u32()? as usize)).collect()
    }

    /// Folds recorded dims into an element count with overflow checks,
    /// so a corrupt file with huge extents fails with
    /// [`SerializeError::Format`] instead of a multiply panic/wrap.
    fn checked_len(dims: &[usize]) -> Result<usize, SerializeError> {
        dims.iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| SerializeError::Format("tensor extent overflow".into()))
    }

    fn take_f32s(&mut self, count: usize) -> Result<Vec<f32>, SerializeError> {
        let bytes = count
            .checked_mul(4)
            .ok_or_else(|| SerializeError::Format("tensor extent overflow".into()))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn take_entry(&mut self) -> Result<(String, Tensor), SerializeError> {
        let name = self.take_str()?;
        let dims = self.take_dims()?;
        let data = self.take_f32s(Self::checked_len(&dims)?.max(1))?;
        Ok((name, Tensor::from_vec(data, &dims)))
    }
}

/// A decoded checkpoint: the manifest and the flat entry list in
/// manifest order.
type Checkpoint = (ModelManifest, Vec<(String, Tensor)>);

fn decode(buf: &[u8]) -> Result<Checkpoint, SerializeError> {
    let mut r = Reader { buf, cursor: 0 };
    if r.take(4)? != MAGIC {
        return Err(SerializeError::Format("bad magic".into()));
    }
    let version = r.take_u32()?;
    if version != VERSION {
        return Err(SerializeError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let model = r.take_str()?;
    let group_count = r.take_count(MIN_GROUP, "group")?;
    let mut groups = Vec::with_capacity(group_count);
    for _ in 0..group_count {
        let name = r.take_str()?;
        let param_count = r.take_count(WORD, "param")?;
        let mut params = Vec::with_capacity(param_count);
        for _ in 0..param_count {
            params.push(r.take_str()?);
        }
        let bytes = r.take_u64()? as usize;
        let hash = r.take_u64()?;
        groups.push(GroupManifest {
            name,
            params,
            bytes,
            hash,
        });
    }
    let manifest = ModelManifest { model, groups };
    let entry_count = r.take_count(MIN_ENTRY, "entry")?;
    if entry_count != manifest.total_params() {
        return Err(SerializeError::Format(format!(
            "manifest lists {} tensors but file stores {entry_count}",
            manifest.total_params()
        )));
    }
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        entries.push(r.take_entry()?);
    }
    // Verify the manifest against the payload: names, sizes and
    // content hashes must all agree, group by group.
    let mut offset = 0usize;
    for g in &manifest.groups {
        let slice = &entries[offset..offset + g.params.len()];
        offset += g.params.len();
        for (want, (got, _)) in g.params.iter().zip(slice) {
            if want != got {
                return Err(SerializeError::Format(format!(
                    "group {:?}: manifest names {want:?} but payload stores {got:?}",
                    g.name
                )));
            }
        }
        let bytes: usize = slice.iter().map(|(_, t)| t.len() * 4).sum();
        if bytes != g.bytes {
            return Err(SerializeError::Format(format!(
                "group {:?}: manifest claims {} bytes but payload holds {bytes}",
                g.name, g.bytes
            )));
        }
        let hash = content_hash(slice.iter().map(|(_, t)| t));
        if hash != g.hash {
            return Err(SerializeError::Format(format!(
                "group {:?}: content hash mismatch (corrupted payload?)",
                g.name
            )));
        }
    }
    Ok((manifest, entries))
}

/// Reads a checkpoint written by [`save_grouped`], verifying every
/// group's recorded byte size and content hash against the loaded
/// tensors.
///
/// # Errors
///
/// Returns [`SerializeError::Format`] on magic/version mismatch,
/// truncated data, a count the file is too short to hold, or a manifest
/// that disagrees with the entries, and [`SerializeError::Io`] on read
/// failures.
pub fn load_grouped(path: &Path) -> Result<Checkpoint, SerializeError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_tensor::TensorRng;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        env::temp_dir().join(format!("safecross_nn_test_{name}_{}", std::process::id()))
    }

    /// Bytes of a checkpoint holding one group `g` with one tensor `w`.
    fn small_checkpoint(name: &str, dims: &[usize]) -> Vec<u8> {
        let mut rng = TensorRng::seed_from(3);
        let groups = vec![(
            "g".to_owned(),
            vec![("w".to_owned(), rng.uniform(dims, -1.0, 1.0))],
        )];
        let path = tmp(name);
        save_grouped(&path, "m", &groups).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        bytes
    }

    /// Magic, version and an empty model name: everything before the
    /// group count.
    fn header() -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes
    }

    fn format_error(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(SerializeError::Format(m)) => m,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_preserves_manifest_names_shapes_values() {
        let mut rng = TensorRng::seed_from(1);
        let groups = vec![
            (
                "stem".to_owned(),
                vec![
                    ("stem.weight".to_owned(), rng.uniform(&[4, 3], -1.0, 1.0)),
                    ("stem.bias".to_owned(), rng.uniform(&[4], -1.0, 1.0)),
                ],
            ),
            (
                "head".to_owned(),
                vec![
                    ("head.weight".to_owned(), rng.uniform(&[2, 4], -1.0, 1.0)),
                    ("scalar".to_owned(), Tensor::scalar(7.5)),
                ],
            ),
        ];
        let path = tmp("grouped_roundtrip");
        let written = save_grouped(&path, "daytime", &groups).unwrap();
        assert_eq!(written.model, "daytime");
        assert_eq!(written.total_bytes(), (12 + 4 + 8 + 1) * 4);
        let (manifest, entries) = load_grouped(&path).unwrap();
        assert_eq!(manifest, written);
        let flat: Vec<(String, Tensor)> =
            groups.iter().flat_map(|(_, e)| e.iter().cloned()).collect();
        assert_eq!(entries, flat);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn other_version_words_are_a_typed_error() {
        // 1, 2 and 3 are the retired formats; 5 does not exist yet.
        for version in [0u32, 1, 2, 3, 5] {
            let mut bytes = small_checkpoint("version_word", &[2, 2]);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let m = format_error(&bytes);
            assert!(m.contains(&format!("unsupported version {version}")), "{m}");
        }
    }

    #[test]
    fn huge_counts_fail_before_anything_is_allocated_for_them() {
        // Every list length in the format, set to u32::MAX in a file a
        // few dozen bytes long. Sizing a Vec from any of them would ask
        // for 16–400 GB (abort) or overflow the capacity (panic).
        let huge = u32::MAX.to_le_bytes();

        let mut groups = header();
        groups.extend_from_slice(&huge);
        assert!(format_error(&groups).contains("group count"));

        let mut params = header();
        params.extend_from_slice(&1u32.to_le_bytes()); // one group
        params.extend_from_slice(&0u32.to_le_bytes()); // named ""
        params.extend_from_slice(&huge);
        params.extend_from_slice(&[0; 16]); // its bytes + hash
        assert!(format_error(&params).contains("param count"));

        let mut entries = header();
        entries.extend_from_slice(&0u32.to_le_bytes()); // no groups
        entries.extend_from_slice(&huge);
        assert!(format_error(&entries).contains("entry count"));

        // From a real file: the tensor's ndim.
        let mut ndim = small_checkpoint("huge_counts", &[2, 2]);
        let ndim_at = ndim.len() - 4 * 4 - 2 * 4 - 4; // data, dims, ndim
        assert_eq!(ndim[ndim_at..ndim_at + 4], 2u32.to_le_bytes());
        ndim[ndim_at..ndim_at + 4].copy_from_slice(&huge);
        assert!(format_error(&ndim).contains("dim count"));
    }

    #[test]
    fn corrupted_payload_fails_hash_verification() {
        let mut bytes = small_checkpoint("corrupt", &[8]);
        // Flip one bit in the last f32 of the payload.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        let m = format_error(&bytes);
        assert!(m.contains("hash"), "{m}");
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPE....").unwrap();
        match load_grouped(&path) {
            Err(SerializeError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = small_checkpoint("truncated", &[10, 10]);
        let m = format_error(&bytes[..bytes.len() / 2]);
        assert!(m.contains("end of file"), "{m}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SerializeError>();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);

    /// Deterministic pseudo-random f32 payload for a (seed, index) pair:
    /// spans negatives, zero, and fractional values so the round-trip is
    /// exercised on more than nice numbers.
    fn val(seed: u64, i: usize) -> f32 {
        let x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64)
            .wrapping_mul(1442695040888963407);
        ((x >> 33) as i32 % 10_000) as f32 * 0.0137
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Arbitrary group splits, names, and shapes must round-trip
        // with bit-identical tensors and an identical manifest.
        #[test]
        fn roundtrip_is_bit_identical(
            spec in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..1_000_000u64, proptest::collection::vec(1usize..5, 1..4)),
                    1..5,
                ),
                1..5,
            )
        ) {
            let groups: Vec<(String, Vec<(String, Tensor)>)> = spec
                .iter()
                .enumerate()
                .map(|(gi, entries)| {
                    let tensors = entries
                        .iter()
                        .enumerate()
                        .map(|(pi, (seed, dims))| {
                            let len: usize = dims.iter().product();
                            let data: Vec<f32> = (0..len).map(|i| val(*seed, i)).collect();
                            (
                                format!("group{gi}.param{pi}.s{seed}"),
                                Tensor::from_vec(data, dims),
                            )
                        })
                        .collect();
                    (format!("group{gi}"), tensors)
                })
                .collect();

            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "safecross_nn_prop_{}_{case}",
                std::process::id()
            ));
            let written = save_grouped(&path, "prop-model", &groups).unwrap();
            let (manifest, entries) = load_grouped(&path).unwrap();
            std::fs::remove_file(&path).ok();

            prop_assert_eq!(&manifest, &written);
            prop_assert_eq!(manifest.model.as_str(), "prop-model");
            prop_assert_eq!(manifest.groups.len(), groups.len());
            let flat: Vec<&(String, Tensor)> =
                groups.iter().flat_map(|(_, e)| e.iter()).collect();
            prop_assert_eq!(entries.len(), flat.len());
            for ((name, tensor), (want_name, want)) in entries.iter().zip(flat) {
                prop_assert_eq!(name, want_name);
                prop_assert_eq!(tensor.dims(), want.dims());
                // Bit-level equality, stricter than f32 ==.
                for (a, b) in tensor.data().iter().zip(want.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // Manifest sizes are the real payload sizes.
            for (g, (_, e)) in manifest.groups.iter().zip(&groups) {
                let bytes: usize = e.iter().map(|(_, t)| t.len() * 4).sum();
                prop_assert_eq!(g.bytes, bytes);
            }
        }
    }
}
