//! Thread-scoped active registries with a process-global fallback, and the
//! per-thread handle cache instrumented code resolves them through.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::registry::Registry;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

thread_local! {
    static ACTIVE: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// The process-global registry. Used as the fallback when no scope is
/// installed on the current thread, and as the home of a long-running
/// process's own series (the daemon's job and request counters). Library
/// code records into [`active`], never here directly.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The registry instrumented code should record into: the innermost scope
/// installed on this thread via [`scoped`], or [`global`] when none is.
pub fn active() -> Registry {
    with_active(Registry::clone)
}

/// Calls `f` with the thread's active registry, without cloning it.
fn with_active<R>(f: impl FnOnce(&Registry) -> R) -> R {
    ACTIVE.with(|stack| f(stack.borrow().last().unwrap_or_else(|| global())))
}

/// One thread's set of instrument handles `T`, resolved from the active
/// registry and re-resolved only when the active registry changes.
///
/// Resolution takes the registry's lock and builds owned series keys; a
/// cache makes that cost once per thread per registry instead of once per
/// use. The cache is keyed on [`Registry::id`], which is never reused, so
/// handles of a dropped registry are never mistaken for a new one's.
/// Declare one per handle set in a `thread_local!`:
///
/// ```
/// use telemetry::{Counter, HandleCache, Stability};
///
/// thread_local! {
///     static EVENTS: HandleCache<Counter> = const { HandleCache::new() };
/// }
///
/// fn count_event() {
///     EVENTS.with(|cache| {
///         cache.with(
///             |registry| {
///                 registry
///                     .counter("events_total", &[], "Events", Stability::Stable)
///                     .expect("valid series")
///             },
///             |events| events.inc(),
///         )
///     });
/// }
///
/// let registry = telemetry::Registry::new();
/// {
///     let _scope = telemetry::scoped(&registry);
///     count_event();
///     count_event();
/// }
/// assert_eq!(registry.snapshot().counter_value("events_total", &[]), Some(2));
/// ```
#[derive(Debug)]
pub struct HandleCache<T> {
    cached: RefCell<Option<(u64, T)>>,
}

impl<T> HandleCache<T> {
    /// An empty cache: the first [`HandleCache::with`] resolves.
    pub const fn new() -> Self {
        Self {
            cached: RefCell::new(None),
        }
    }

    /// Calls `f` with the handles of the thread's active registry, first
    /// resolving them with `resolve` when the cache is empty or holds
    /// another registry's.
    ///
    /// # Panics
    ///
    /// When `resolve` or `f` re-enters this same cache.
    pub fn with<R>(&self, resolve: impl FnOnce(&Registry) -> T, f: impl FnOnce(&T) -> R) -> R {
        let mut cached = self.cached.borrow_mut();
        with_active(|registry| {
            let id = registry.id();
            if cached
                .as_ref()
                .is_none_or(|(cached_id, _)| *cached_id != id)
            {
                *cached = Some((id, resolve(registry)));
            }
        });
        let (_, handles) = cached.as_ref().expect("populated above");
        f(handles)
    }
}

impl<T> Default for HandleCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Guard keeping a registry installed as the current thread's active one;
/// uninstalls on drop. Scopes nest (innermost wins) and are thread-local:
/// spawned threads start with no scope.
#[derive(Debug)]
pub struct RegistryScope {
    // !Send by construction: the guard must drop on the installing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `registry` as the active registry of the current thread for the
/// lifetime of the returned guard.
pub fn scoped(registry: &Registry) -> RegistryScope {
    ACTIVE.with(|stack| stack.borrow_mut().push(registry.clone()));
    RegistryScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for RegistryScope {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}
