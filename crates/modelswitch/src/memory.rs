//! The pinned GPU memory pool.
//!
//! PipeSwitch keeps the active model resident and streams the standby
//! model into a pre-allocated region, so a switch never waits on
//! `cudaMalloc`. This pool models that discipline: named reservations
//! inside a fixed capacity, with an error (not a panic) when a model
//! does not fit — the runtime must evict first.

use std::collections::HashMap;
use std::fmt;

/// Error returned when a reservation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Not enough free bytes; contains the shortfall.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes free.
        free: usize,
    },
    /// A reservation with this name already exists.
    AlreadyReserved(String),
    /// No reservation with this name exists.
    NotReserved(String),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, free } => {
                write!(f, "out of GPU memory: requested {requested} bytes, {free} free")
            }
            MemoryError::AlreadyReserved(n) => write!(f, "model {n} is already resident"),
            MemoryError::NotReserved(n) => write!(f, "model {n} is not resident"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A fixed-capacity GPU memory pool with named reservations. Callers
/// see it through [`crate::ModelSwitcher`]: a model that does not fit
/// even after the previous one was evicted is refused, and the previous
/// model keeps serving.
///
/// ```
/// use safecross_modelswitch::{GpuSpec, ModelDesc, ModelSwitcher, SwitchError, SwitchStrategy};
///
/// let small = ModelDesc::slowfast_r50();
/// let switcher = ModelSwitcher::new(
///     GpuSpec::rtx_2080_ti(),
///     small.total_bytes() + 1024,
///     SwitchStrategy::PipelinedOptimal,
/// );
/// switcher.register("daytime", small);
/// switcher.register("huge", ModelDesc::resnet152());
/// switcher.switch_to("daytime")?;
/// let err = switcher.switch_to("huge").unwrap_err();
/// assert!(matches!(err, SwitchError::OutOfMemory { .. }));
/// assert_eq!(switcher.active().as_deref(), Some("daytime"));
/// # Ok::<(), SwitchError>(())
/// ```
#[derive(Debug, Clone)]
pub(crate) struct MemoryPool {
    capacity: usize,
    reservations: HashMap<String, usize>,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MemoryPool {
            capacity,
            reservations: HashMap::new(),
        }
    }

    /// Bytes currently reserved.
    pub(crate) fn used(&self) -> usize {
        self.reservations.values().sum()
    }

    /// Bytes available.
    pub(crate) fn free(&self) -> usize {
        self.capacity - self.used()
    }

    /// Reserves `bytes` under `name`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfMemory`] when the pool cannot fit the request;
    /// [`MemoryError::AlreadyReserved`] for duplicate names.
    pub(crate) fn reserve(&mut self, name: &str, bytes: usize) -> Result<(), MemoryError> {
        if self.reservations.contains_key(name) {
            return Err(MemoryError::AlreadyReserved(name.to_owned()));
        }
        if bytes > self.free() {
            return Err(MemoryError::OutOfMemory {
                requested: bytes,
                free: self.free(),
            });
        }
        self.reservations.insert(name.to_owned(), bytes);
        Ok(())
    }

    /// Releases the reservation under `name`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::NotReserved`] when no such reservation exists.
    pub(crate) fn release(&mut self, name: &str) -> Result<usize, MemoryError> {
        self.reservations
            .remove(name)
            .ok_or_else(|| MemoryError::NotReserved(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut pool = MemoryPool::new(1000);
        pool.reserve("a", 400).unwrap();
        assert_eq!(pool.used(), 400);
        assert_eq!(pool.free(), 600);
        assert_eq!(pool.release("a").unwrap(), 400);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn oversubscription_is_an_error_not_a_panic() {
        let mut pool = MemoryPool::new(1000);
        pool.reserve("a", 800).unwrap();
        let err = pool.reserve("b", 300).unwrap_err();
        assert_eq!(
            err,
            MemoryError::OutOfMemory {
                requested: 300,
                free: 200
            }
        );
        // Pool state unchanged after the failed request.
        assert_eq!(pool.used(), 800);
    }

    #[test]
    fn duplicate_and_missing_names() {
        let mut pool = MemoryPool::new(1000);
        pool.reserve("a", 100).unwrap();
        assert!(matches!(
            pool.reserve("a", 100),
            Err(MemoryError::AlreadyReserved(_))
        ));
        assert!(matches!(pool.release("zz"), Err(MemoryError::NotReserved(_))));
    }

    #[test]
    fn active_plus_standby_fit_on_2080ti() {
        // The scenario the runtime relies on: two SafeCross models
        // resident at once on an 11 GB card.
        let mut pool = MemoryPool::new(11_000_000_000);
        let model_bytes = crate::ModelDesc::slowfast_r50().total_bytes();
        pool.reserve("active", model_bytes).unwrap();
        pool.reserve("standby", model_bytes).unwrap();
        assert!(pool.free() > 0);
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = MemoryError::OutOfMemory { requested: 10, free: 5 };
        assert!(format!("{e}").contains("out of GPU memory"));
    }
}
