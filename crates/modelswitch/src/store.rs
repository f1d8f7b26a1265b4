//! The content-addressed model store.
//!
//! [`ModelRegistry`] is the durable side of the model artifact IR: every
//! checkpoint — the daytime/rain/snow scene models, few-shot-adapted
//! variants, anything a [`crate::ModelSwitcher`] might activate — is
//! registered as an ordered list of **layer groups**, and each group's
//! tensors are stored as one flat weight blob keyed by its content hash
//! ([`safecross_tensor::blob`]). Two checkpoints whose backbone stages
//! are bit-identical therefore share those stages' storage; only the
//! groups that actually differ (say, an adapted head) cost bytes. Blobs
//! are reference counted so removing a model frees exactly the storage
//! nothing else uses.
//!
//! The manifest type is [`safecross_nn::ModelManifest`] — the same
//! structure `safecross_nn::save_grouped` writes to disk — so a
//! weight file, an in-memory registration, and a switcher activation all
//! describe a model identically. `ModelRegistry::shared_model_desc`
//! projects a manifest onto [`ModelDesc`] with one [`LayerDesc`] per
//! group, which is how the switch timeline comes to be driven by real
//! group sizes.

use crate::model_desc::{LayerDesc, ModelDesc};
use safecross_nn::{manifest_for, ModelManifest};
use safecross_telemetry::{Counter, Gauge, Registry};
use safecross_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Metadata for one tensor inside a blob: shape plus its flat span.
#[derive(Debug, Clone)]
struct BlobSpan {
    dims: Vec<usize>,
    offset: usize,
    len: usize,
}

/// One content-addressed weight group: flat data plus per-tensor spans.
#[derive(Debug)]
struct Blob {
    data: Vec<f32>,
    spans: Vec<BlobSpan>,
    refs: usize,
}

impl Blob {
    fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Pre-fetched registry gauges (see [`ModelRegistry::instrument`]).
#[derive(Debug)]
struct StoreTelemetry {
    models: Gauge,
    unique_groups: Gauge,
    dedup_bytes: Gauge,
    evicted_bytes: Counter,
    evictions: Counter,
}

#[derive(Debug, Default)]
struct StoreInner {
    blobs: HashMap<u64, Blob>,
    models: HashMap<String, ModelManifest>,
    /// Lazily-built shared switch descriptors per checkpoint name, one
    /// per FLOP budget (the `u64`, in bits) they were derived with.
    /// Invalidated whenever the named checkpoint changes. A descriptor
    /// held outside the store protects its checkpoint from eviction.
    descs: HashMap<String, Vec<(u64, Arc<ModelDesc>)>>,
    /// LRU eviction state: `stored_bytes` ceiling (None = unbounded),
    /// names never evicted, and a monotone access clock per checkpoint.
    ceiling: Option<usize>,
    pinned: HashSet<String>,
    clock: u64,
    touched: HashMap<String, u64>,
    evicted_bytes: usize,
    evictions: u64,
    telemetry: Option<StoreTelemetry>,
}

impl StoreInner {
    fn stored_bytes(&self) -> usize {
        self.blobs.values().map(Blob::bytes).sum()
    }

    fn logical_bytes(&self) -> usize {
        self.models.values().map(ModelManifest::total_bytes).sum()
    }

    fn release_groups(&mut self, manifest: &ModelManifest) {
        for g in &manifest.groups {
            let drop_blob = {
                let blob = self
                    .blobs
                    .get_mut(&g.hash)
                    .expect("registered group has a blob");
                blob.refs -= 1;
                blob.refs == 0
            };
            if drop_blob {
                self.blobs.remove(&g.hash);
            }
        }
    }

    fn publish_gauges(&self) {
        if let Some(tel) = &self.telemetry {
            tel.models.set(self.models.len() as f64);
            tel.unique_groups.set(self.blobs.len() as f64);
            tel.dedup_bytes
                .set((self.logical_bytes() - self.stored_bytes()) as f64);
        }
    }

    /// Bumps the LRU access clock for `name` (no-op for unknown names).
    fn touch(&mut self, name: &str) {
        if self.models.contains_key(name) {
            self.clock += 1;
            self.touched.insert(name.to_owned(), self.clock);
        }
    }

    /// Whether a shared descriptor of `name` is held outside the store:
    /// some switcher has the checkpoint registered, so it can be
    /// switched to at any moment.
    fn switchable(&self, name: &str) -> bool {
        self.descs
            .get(name)
            .is_some_and(|v| v.iter().any(|(_, d)| Arc::strong_count(d) > 1))
    }

    /// Evicts least-recently-touched checkpoints until `stored_bytes`
    /// fits under the ceiling. Pinned checkpoints and switchable ones
    /// (some switcher holds their shared descriptor) are never
    /// candidates, so eviction can stall above the ceiling rather than
    /// drop weights a session may still serve. Re-registering a name
    /// with *changed* content drops its cached descriptors, so the
    /// protection follows the new content only once a switcher
    /// registers it again.
    fn enforce_ceiling(&mut self) {
        let Some(ceiling) = self.ceiling else { return };
        while self.stored_bytes() > ceiling {
            let victim = self
                .models
                .keys()
                .filter(|n| !self.pinned.contains(*n) && !self.switchable(n))
                .min_by_key(|n| (self.touched.get(*n).copied().unwrap_or(0), (*n).clone()))
                .cloned();
            let Some(name) = victim else { break };
            let before = self.stored_bytes();
            let manifest = self.models.remove(&name).expect("victim is registered");
            self.release_groups(&manifest);
            self.descs.remove(&name);
            self.touched.remove(&name);
            let freed = before - self.stored_bytes();
            self.evicted_bytes += freed;
            self.evictions += 1;
            if let Some(tel) = &self.telemetry {
                tel.evicted_bytes.add(freed as u64);
                tel.evictions.inc();
            }
        }
    }
}

/// A shared, content-addressed store of model checkpoints.
///
/// Cloning the registry clones a handle to the same store (the inner
/// state sits behind an `Arc<Mutex<..>>`), which is how a fleet server
/// shares one copy of every weather model across all of its streams.
///
/// ```
/// use safecross_modelswitch::ModelRegistry;
/// use safecross_tensor::Tensor;
///
/// let store = ModelRegistry::new();
/// let groups = vec![(
///     "head".to_owned(),
///     vec![("head.weight".to_owned(), Tensor::ones(&[2, 3]))],
/// )];
/// store.register_model("daytime", &groups);
/// store.register_model("rain", &groups); // identical weights: deduplicated
/// assert_eq!(store.unique_groups(), 1);
/// assert_eq!(store.dedup_bytes(), 6 * 4);
/// let restored = store.state_dict("rain").expect("registered");
/// assert_eq!(restored[0].1, Tensor::ones(&[2, 3]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    inner: Arc<Mutex<StoreInner>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Attaches telemetry shared by every handle to this registry. The
    /// gauges `registry.models`, `registry.unique_groups` and
    /// `registry.dedup_bytes` are published immediately and refreshed on
    /// every registration/removal; the counters `registry.evicted_bytes`
    /// and `registry.evictions` accumulate LRU eviction activity.
    pub fn instrument(&self, registry: &Registry) {
        let mut inner = self.lock();
        inner.telemetry = Some(StoreTelemetry {
            models: registry.gauge("registry.models"),
            unique_groups: registry.gauge("registry.unique_groups"),
            dedup_bytes: registry.gauge("registry.dedup_bytes"),
            evicted_bytes: registry.counter("registry.evicted_bytes"),
            evictions: registry.counter("registry.evictions"),
        });
        inner.publish_gauges();
    }

    /// Registers (or replaces) the checkpoint `name` from grouped named
    /// tensors, returning the manifest under which it was stored.
    ///
    /// Groups whose content (shapes + data, order sensitive) matches an
    /// already-stored blob share that blob; a hash collision against
    /// different content is detected by byte comparison and resolved by
    /// storing under a perturbed key, so aliasing cannot happen
    /// silently. Re-registering an existing name first releases its old
    /// groups, making checkpoint updates idempotent.
    pub fn register_model(
        &self,
        name: &str,
        groups: &[(String, Vec<(String, Tensor)>)],
    ) -> ModelManifest {
        let mut manifest = manifest_for(name, groups);
        let mut inner = self.lock();
        let old = inner.models.remove(name);
        if let Some(old) = &old {
            inner.release_groups(old);
        }
        for (g, (_, entries)) in manifest.groups.iter_mut().zip(groups) {
            let mut key = g.hash;
            loop {
                match inner.blobs.get_mut(&key) {
                    Some(blob) if blob_matches(blob, entries) => {
                        blob.refs += 1;
                        break;
                    }
                    Some(_) => {
                        // Different content under the same key: an FNV
                        // collision. Probe the next key; lookups always
                        // verify content, so correctness is preserved.
                        key = key.wrapping_add(1);
                    }
                    None => {
                        inner.blobs.insert(key, build_blob(entries));
                        break;
                    }
                }
            }
            g.hash = key;
        }
        // A re-registration with bit-identical content (every session of
        // a fleet registers the same scene checkpoints) keeps the cached
        // shared descriptors; only real content changes invalidate them.
        if old.as_ref() != Some(&manifest) {
            inner.descs.remove(name);
        }
        inner.models.insert(name.to_owned(), manifest.clone());
        inner.touch(name);
        inner.enforce_ceiling();
        inner.publish_gauges();
        manifest
    }

    /// Removes the checkpoint `name`, freeing any blobs no other model
    /// references. Returns whether the name was present.
    pub fn remove_model(&self, name: &str) -> bool {
        let mut inner = self.lock();
        inner.descs.remove(name);
        inner.touched.remove(name);
        inner.pinned.remove(name);
        match inner.models.remove(name) {
            Some(manifest) => {
                inner.release_groups(&manifest);
                inner.publish_gauges();
                true
            }
            None => false,
        }
    }

    /// Whether a checkpoint is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.lock().models.contains_key(name)
    }

    /// The manifest stored for `name`, if any.
    pub fn manifest(&self, name: &str) -> Option<ModelManifest> {
        self.lock().models.get(name).cloned()
    }

    /// Registered checkpoint names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().models.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered checkpoints.
    pub fn model_count(&self) -> usize {
        self.lock().models.len()
    }

    /// Number of distinct weight blobs actually stored.
    pub fn unique_groups(&self) -> usize {
        self.lock().blobs.len()
    }

    /// Bytes of weight data physically held (each unique group once).
    pub fn stored_bytes(&self) -> usize {
        self.lock().stored_bytes()
    }

    /// Bytes the registered checkpoints would occupy without dedup.
    pub fn logical_bytes(&self) -> usize {
        self.lock().logical_bytes()
    }

    /// Bytes saved by content dedup (`logical - stored`).
    pub fn dedup_bytes(&self) -> usize {
        let inner = self.lock();
        inner.logical_bytes() - inner.stored_bytes()
    }

    /// How many registered checkpoints reference the blob stored under
    /// `hash` (a [`safecross_nn::GroupManifest::hash`] value). Zero when
    /// no such blob exists.
    pub fn group_refs(&self, hash: u64) -> usize {
        self.lock().blobs.get(&hash).map_or(0, |b| b.refs)
    }

    /// Projects the checkpoint `name` onto a switcher [`ModelDesc`]:
    /// one [`LayerDesc`] per layer group carrying the group's **real**
    /// byte size, with `total_flops` attributed proportionally to bytes.
    ///
    /// The descriptor is cached and shared: the first call for a
    /// checkpoint and budget builds the layer table, every later call
    /// (every further session opened on the fleet) clones an `Arc`. The
    /// cache is invalidated when the checkpoint is re-registered with
    /// changed content or removed. Crate-private because an outside
    /// holder of the `Arc` protects the checkpoint from eviction.
    pub(crate) fn shared_model_desc(&self, name: &str, total_flops: f64) -> Option<Arc<ModelDesc>> {
        let mut inner = self.lock();
        inner.touch(name);
        let bits = total_flops.to_bits();
        let cached = inner.descs.get(name).and_then(|v| v.iter().find(|(b, _)| *b == bits));
        if let Some((_, desc)) = cached {
            return Some(Arc::clone(desc));
        }
        let manifest = inner.models.get(name)?;
        let total_bytes = manifest.total_bytes().max(1);
        let layers: Vec<LayerDesc> = manifest
            .groups
            .iter()
            .map(|g| LayerDesc {
                name: g.name.clone(),
                param_bytes: g.bytes,
                flops: total_flops * g.bytes as f64 / total_bytes as f64,
            })
            .collect();
        let desc = Arc::new(ModelDesc::new(name, layers, manifest.total_params()));
        let cached = inner.descs.entry(name.to_owned()).or_default();
        // Budgets nobody holds any more need no slot.
        cached.retain(|(_, d)| Arc::strong_count(d) > 1);
        cached.push((bits, Arc::clone(&desc)));
        Some(desc)
    }

    /// Reconstructs the full named state dictionary of checkpoint
    /// `name` from its stored blobs, in manifest order. The tensors are
    /// bit-identical to the ones registered.
    pub fn state_dict(&self, name: &str) -> Option<Vec<(String, Tensor)>> {
        let mut inner = self.lock();
        inner.touch(name);
        let inner = &*inner;
        let manifest = inner.models.get(name)?;
        let mut out = Vec::with_capacity(manifest.total_params());
        for g in &manifest.groups {
            let blob = inner.blobs.get(&g.hash).expect("registered group has a blob");
            for (pname, span) in g.params.iter().zip(&blob.spans) {
                let data = blob.data[span.offset..span.offset + span.len].to_vec();
                out.push((pname.clone(), Tensor::from_vec(data, &span.dims)));
            }
        }
        Some(out)
    }

    /// Sets (or clears, with `None`) the `stored_bytes` ceiling.
    /// Whenever a registration pushes physical storage past the
    /// ceiling, least-recently-used checkpoints are evicted until it
    /// fits again — except pinned checkpoints
    /// ([`ModelRegistry::pin_model`]) and checkpoints some
    /// [`crate::ModelSwitcher`] has registered (can switch to), which
    /// are never evicted (so a tight ceiling can be exceeded rather than
    /// drop weights a session may serve). An evicted checkpoint simply
    /// disappears from the registry: `state_dict` returns `None` and it
    /// must be re-registered to be used again.
    pub fn set_memory_ceiling(&self, ceiling: Option<usize>) {
        let mut inner = self.lock();
        inner.ceiling = ceiling;
        inner.enforce_ceiling();
        inner.publish_gauges();
    }

    /// The configured `stored_bytes` ceiling, if any.
    pub fn memory_ceiling(&self) -> Option<usize> {
        self.lock().ceiling
    }

    /// Exempts `name` from LRU eviction (base scene checkpoints, the
    /// incumbent of a live stream). Pinning an unregistered name is
    /// allowed and takes effect if it is registered later.
    pub fn pin_model(&self, name: &str) {
        self.lock().pinned.insert(name.to_owned());
    }

    /// Total physical bytes freed by LRU eviction so far.
    pub fn evicted_bytes(&self) -> usize {
        self.lock().evicted_bytes
    }

    /// Number of checkpoints evicted by the LRU policy so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("model registry mutex poisoned")
    }
}

fn build_blob(entries: &[(String, Tensor)]) -> Blob {
    let total: usize = entries.iter().map(|(_, t)| t.len()).sum();
    let mut data = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(entries.len());
    for (_, t) in entries {
        spans.push(BlobSpan {
            dims: t.dims().to_vec(),
            offset: data.len(),
            len: t.len(),
        });
        data.extend_from_slice(t.data());
    }
    Blob {
        data,
        spans,
        refs: 1,
    }
}

/// True content equality between a stored blob and candidate entries —
/// the collision guard behind content addressing.
fn blob_matches(blob: &Blob, entries: &[(String, Tensor)]) -> bool {
    if blob.spans.len() != entries.len() {
        return false;
    }
    for (span, (_, t)) in blob.spans.iter().zip(entries) {
        if span.dims != t.dims() {
            return false;
        }
        let stored = &blob.data[span.offset..span.offset + span.len];
        if stored
            .iter()
            .zip(t.data())
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_telemetry::Registry;

    fn group(name: &str, fill: f32, elems: usize) -> (String, Vec<(String, Tensor)>) {
        (
            name.to_owned(),
            vec![(format!("{name}.weight"), Tensor::full(&[elems], fill))],
        )
    }

    #[test]
    fn identical_models_share_all_groups() {
        let store = ModelRegistry::new();
        let groups = vec![group("stem", 1.0, 100), group("head", 2.0, 10)];
        let m1 = store.register_model("daytime", &groups);
        let m2 = store.register_model("rain", &groups);
        store.register_model("snow", &groups);
        assert_eq!(store.model_count(), 3);
        assert_eq!(store.unique_groups(), 2);
        assert_eq!(store.stored_bytes(), 110 * 4);
        assert_eq!(store.logical_bytes(), 3 * 110 * 4);
        assert_eq!(store.dedup_bytes(), 2 * 110 * 4);
        assert_eq!(m1.groups, m2.groups, "shared content, same group manifests");
        for g in &m1.groups {
            assert_eq!(store.group_refs(g.hash), 3);
        }
    }

    #[test]
    fn differing_group_costs_only_its_own_bytes() {
        let store = ModelRegistry::new();
        let base = vec![group("stem", 1.0, 100), group("head", 2.0, 10)];
        let adapted = vec![group("stem", 1.0, 100), group("head", 9.0, 10)];
        store.register_model("meta", &base);
        store.register_model("adapted", &adapted);
        assert_eq!(store.unique_groups(), 3); // shared stem + two heads
        assert_eq!(store.stored_bytes(), (100 + 10 + 10) * 4);
        assert_eq!(store.dedup_bytes(), 100 * 4);
    }

    #[test]
    fn remove_model_frees_unshared_blobs_only() {
        let store = ModelRegistry::new();
        let base = vec![group("stem", 1.0, 100), group("head", 2.0, 10)];
        let adapted = vec![group("stem", 1.0, 100), group("head", 9.0, 10)];
        store.register_model("meta", &base);
        store.register_model("adapted", &adapted);
        assert!(store.remove_model("adapted"));
        assert!(!store.remove_model("adapted"));
        assert_eq!(store.unique_groups(), 2);
        assert_eq!(store.stored_bytes(), 110 * 4);
        assert!(store.state_dict("meta").is_some());
        assert!(store.state_dict("adapted").is_none());
    }

    #[test]
    fn reregistering_a_name_is_idempotent_on_refcounts() {
        let store = ModelRegistry::new();
        let groups = vec![group("g", 3.0, 7)];
        let m = store.register_model("daytime", &groups);
        store.register_model("daytime", &groups);
        store.register_model("daytime", &groups);
        assert_eq!(store.group_refs(m.groups[0].hash), 1);
        assert_eq!(store.unique_groups(), 1);
        assert_eq!(store.model_count(), 1);
    }

    #[test]
    fn state_dict_reconstructs_bit_identical_tensors() {
        let store = ModelRegistry::new();
        let t1 = Tensor::from_vec(vec![1.5, -2.25, 0.0, 3.125], &[2, 2]);
        let t2 = Tensor::from_vec(vec![0.5, -0.5, 7.75], &[3]);
        let groups = vec![(
            "all".to_owned(),
            vec![("a".to_owned(), t1.clone()), ("b".to_owned(), t2.clone())],
        )];
        store.register_model("m", &groups);
        let restored = store.state_dict("m").expect("registered");
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0].0, "a");
        assert_eq!(restored[0].1, t1);
        assert_eq!(restored[1].0, "b");
        assert_eq!(restored[1].1, t2);
    }

    #[test]
    fn model_desc_uses_real_group_sizes() {
        let store = ModelRegistry::new();
        let groups = vec![group("stem", 1.0, 300), group("head", 2.0, 100)];
        store.register_model("m", &groups);
        let desc = store.shared_model_desc("m", 4.0e9).expect("registered");
        assert_eq!(desc.num_layers(), 2);
        assert_eq!(desc.layers[0].param_bytes, 300 * 4);
        assert_eq!(desc.layers[1].param_bytes, 100 * 4);
        assert_eq!(desc.total_bytes(), 400 * 4);
        assert!((desc.layers[0].flops - 3.0e9).abs() < 1.0);
        assert!(store.shared_model_desc("missing", 1.0).is_none());
    }

    #[test]
    fn shared_handles_see_one_store() {
        let store = ModelRegistry::new();
        let handle = store.clone();
        let groups = vec![group("g", 1.0, 4)];
        let h = std::thread::spawn(move || {
            handle.register_model("from-thread", &groups);
        });
        h.join().unwrap();
        assert!(store.contains("from-thread"));
    }

    #[test]
    fn ceiling_evicts_least_recently_used_first() {
        let store = ModelRegistry::new();
        // Three disjoint 400-byte checkpoints under a 900-byte ceiling.
        store.set_memory_ceiling(Some(900));
        store.register_model("a", &[group("ga", 1.0, 100)]);
        store.register_model("b", &[group("gb", 2.0, 100)]);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(store.state_dict("a").is_some());
        store.register_model("c", &[group("gc", 3.0, 100)]);
        assert!(!store.contains("b"), "LRU checkpoint evicted");
        assert!(store.contains("a") && store.contains("c"));
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.evicted_bytes(), 400);
        assert!(store.stored_bytes() <= 900);
        assert_eq!(
            store.logical_bytes(),
            store.stored_bytes() + store.dedup_bytes(),
            "accounting holds after eviction"
        );
    }

    #[test]
    fn pinned_models_survive_eviction_pressure() {
        let store = ModelRegistry::new();
        store.register_model("base", &[group("gb", 1.0, 100)]);
        store.pin_model("base");
        store.set_memory_ceiling(Some(500));
        for i in 0..8 {
            store.register_model(&format!("gen{i}"), &[group("g", i as f32 + 10.0, 100)]);
        }
        assert!(store.contains("base"), "pinned checkpoint never evicted");
        assert!(store.evictions() > 0, "churn actually evicted something");
        assert!(store.stored_bytes() <= 500);
    }

    #[test]
    fn eviction_of_shared_groups_frees_only_unshared_bytes() {
        let store = ModelRegistry::new();
        let base = vec![group("stem", 1.0, 100), group("head", 2.0, 10)];
        let adapted = vec![group("stem", 1.0, 100), group("head", 9.0, 10)];
        store.register_model("meta", &base);
        store.pin_model("meta");
        store.register_model("adapted", &adapted);
        // Ceiling below current stored bytes: "adapted" must go, but
        // the shared stem stays because "meta" still references it.
        store.set_memory_ceiling(Some(440));
        assert!(!store.contains("adapted"));
        assert_eq!(store.stored_bytes(), 110 * 4);
        assert_eq!(store.evicted_bytes(), 10 * 4, "only the unshared head freed");
    }

    #[test]
    fn held_descriptors_are_protected_from_eviction() {
        let store = ModelRegistry::new();
        store.register_model("switchable", &[group("ga", 1.0, 100)]);
        // Simulate a switcher that can switch to the model: it holds the
        // shared descriptor, so the store's cached Arc has an outside
        // holder and the checkpoint must not be evicted — even after a
        // descriptor at another FLOP budget was derived next to it.
        let held = store.shared_model_desc("switchable", 1.0e9).expect("registered");
        drop(store.shared_model_desc("switchable", 2.0e9));
        store.set_memory_ceiling(Some(500));
        for i in 0..4 {
            store.register_model(&format!("gen{i}"), &[group("g", i as f32 + 10.0, 100)]);
        }
        assert!(store.contains("switchable"), "switchable checkpoint evicted");
        assert!(store.evictions() > 0);
        // Dropping the last outside holder makes it evictable again.
        drop(held);
        store.register_model("gen4", &[group("g", 14.0, 100)]);
        assert!(!store.contains("switchable"), "unheld checkpoint stays protected");
    }

    #[test]
    fn eviction_stalls_rather_than_dropping_pinned_models() {
        let store = ModelRegistry::new();
        store.register_model("only", &[group("g", 1.0, 100)]);
        store.pin_model("only");
        store.set_memory_ceiling(Some(8));
        assert!(store.contains("only"), "nothing evictable: ceiling exceeded");
        assert!(store.stored_bytes() > 8);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn gauges_track_registrations() {
        let registry = Registry::new();
        let store = ModelRegistry::new();
        store.instrument(&registry);
        let groups = vec![group("g", 1.0, 25)];
        store.register_model("a", &groups);
        store.register_model("b", &groups);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("registry.models"), Some(2.0));
        assert_eq!(snap.gauge("registry.unique_groups"), Some(1.0));
        assert_eq!(snap.gauge("registry.dedup_bytes"), Some(100.0));
        store.remove_model("b");
        assert_eq!(registry.snapshot().gauge("registry.dedup_bytes"), Some(0.0));
    }
}
