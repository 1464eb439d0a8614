//! Namespaces and configuration: which repository a submission's
//! tenant sees, and which policy it runs under.
//!
//! Every namespace, the default one included, is an entry of one
//! RCU-published map, `ReStore::spaces`, keyed by tenant name. The
//! default namespace is the `""` entry: `ReStore::new` inserts it and
//! every recovery starts from a fresh one, so `None` and `Some("")`
//! name the same space at every entry point, and the journal, which has
//! always called it `""`, needs no translation. The global configuration is a session field beside the
//! map; a tenant's override lives in its own space.
//!
//! ```text
//!   lookup:  space_for (creates on first use) / space_snapshot (read only)
//!            spaces_by_name   every namespace, `""` first
//!   policy:  config_as / set_config_as   `None`: the global default;
//!                                          a tenant: its effective policy
//!            read_config_as      the same, borrowed by a closure
//!            config              `config_as(None)`, for `restore-e2e`
//!            clear_config_as     drop a tenant's override
//!            effective_config    the override, else the global default
//!   admin:   repository_as / with_repository_mut_as
//!   writes:  invalidate_overwritten   an overwrite stales every namespace
//! ```
//!
//! | File | Purpose |
//! |------|---------|
//! | `spaces.rs` | this module: the namespace map, configuration, admin access |
//! | `driver.rs` | the `Space` type, and the execution loop that runs in one |
//! | `introspect.rs` | explain, trace and stats over the namespaces |
//! | `persist.rs` | saving and loading every namespace |

use crate::driver::{ReStore, ReStoreConfig, Space};
use crate::repository::{RepoSnapshot, Repository};
use crate::selector::Eviction;
use std::sync::Arc;

impl ReStore {
    /// The key of `tenant`'s namespace in the map: `None` and an empty
    /// name are both the default namespace, `""` — the same
    /// normalization the service applies at admission, so the two layers
    /// always agree on which namespace (and which policy) serves a
    /// submission.
    pub(crate) fn space_name(tenant: Option<&str>) -> &str {
        tenant.unwrap_or("")
    }

    /// The namespace serving `tenant` (`None` = the default namespace),
    /// created on first use. Only execution paths call this; read-only
    /// introspection uses [`ReStore::space_snapshot`] so probing an
    /// unknown tenant never leaks an empty namespace into the map.
    pub(crate) fn space_for(&self, tenant: Option<&str>) -> Arc<Space> {
        let t = Self::space_name(tenant);
        // Fast path, no writer section: the namespace exists (the
        // default one always does).
        if let Some(s) = self.spaces.load().get(t) {
            return s.clone();
        }
        let mut created = false;
        let space = self.spaces.update(|m| {
            m.entry(t.to_string())
                .or_insert_with(|| {
                    created = true;
                    self.make_space(t)
                })
                .clone()
        });
        if created {
            // Belt and braces for replay: records touching the space
            // auto-create it, but a tenant whose only state is a config
            // override needs the creation on record. Ordering with a
            // racing first mutation of the space is harmless — replay's
            // auto-creation makes the record idempotent.
            self.journal.append_tenant_create(t);
        }
        space
    }

    /// The tenant's namespace for read-only access: an unknown tenant
    /// gets a detached empty space (reported as zero entries) instead of
    /// being created.
    pub(crate) fn space_snapshot(&self, tenant: Option<&str>) -> Arc<Space> {
        self.spaces.load().get(Self::space_name(tenant)).cloned().unwrap_or_default()
    }

    /// Could a rewritten job in *any* namespace be served from `path`?
    /// True when some namespace holds a record of the file at `path`.
    /// The service's cross-workflow scheduler refuses to overlap a
    /// workflow that writes such a path with any other submission:
    /// reuse rewriting can introduce Loads of recorded paths that the
    /// submit-time footprint cannot see.
    pub fn serves_path(&self, path: &str) -> bool {
        // Wait-free snapshots: the scheduler probes this per queued
        // workflow, so it must never sit behind a registration.
        self.spaces.load().values().any(|s| s.repo.snapshot().file(path).is_some())
    }

    /// Every namespace with its name, sorted by name, so the default
    /// namespace, `""`, comes first — the order documents, journal
    /// deltas and per-namespace listings are written in.
    pub(crate) fn spaces_by_name(&self) -> Vec<(String, Arc<Space>)> {
        let mut spaces: Vec<(String, Arc<Space>)> =
            self.spaces.load().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        spaces.sort_by(|a, b| a.0.cmp(&b.0));
        spaces
    }

    /// A wave just (over)wrote these DFS paths. Any record — in *any*
    /// namespace — of one of them now describes foreign bytes: serving
    /// or expanding it would return the overwriting workflow's data (a
    /// wrong answer, and across namespaces a cross-tenant leak). Forget
    /// such records and evict their entries; the files themselves are
    /// left alone — they hold the new workflow's live output. Namespaces
    /// are visited in name order, so the journal records the forgets in
    /// the same order every run.
    pub(crate) fn invalidate_overwritten(&self, written: &[String]) {
        for (_, space) in self.spaces_by_name() {
            // Cheap snapshot probe first: fresh output paths are almost
            // never recorded anywhere.
            let repo = space.repo.snapshot();
            if !written.iter().any(|p| repo.file(p).is_some()) {
                continue;
            }
            // Forgetting a path with no record does nothing.
            self.forget_files(
                &space,
                written.iter().map(|p| (p.clone(), Eviction::Overwritten)).collect(),
            );
        }
    }

    /// Tenants that have a namespace (sorted; the default namespace is
    /// not listed).
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> =
            self.spaces.load().keys().filter(|k| !k.is_empty()).cloned().collect();
        ids.sort();
        ids
    }

    /// The current snapshot of a tenant's repository (`None` = the
    /// default namespace; an unknown tenant reads as empty and is not
    /// created): immutable, safe to hold — later registrations and
    /// evictions publish new snapshots and never mutate this one.
    pub fn repository_as(&self, tenant: Option<&str>) -> Arc<RepoSnapshot> {
        self.space_snapshot(tenant).repo.snapshot()
    }

    /// Run `f` against a tenant's live repository, **creating the
    /// namespace if absent** (`None` = the default namespace).
    /// Mutations made through the handle serialize with registration
    /// and sweeps but never block matching.
    pub fn with_repository_mut_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&Repository) -> R,
    ) -> R {
        let space = self.space_for(tenant);
        f(&space.repo)
    }

    /// The one effective-configuration rule: the namespace's override
    /// when one is set, the global default otherwise. The default
    /// namespace never holds an override, so it follows the global
    /// config.
    pub(crate) fn effective_config(&self, space: &Space) -> ReStoreConfig {
        self.read_effective_config(space, ReStoreConfig::clone)
    }

    /// [`ReStore::effective_config`], read in place by `f`.
    fn read_effective_config<R>(&self, space: &Space, f: impl FnOnce(&ReStoreConfig) -> R) -> R {
        match &*space.config.load() {
            Some(config) => f(config),
            None => f(&self.config.read()),
        }
    }

    /// The effective configuration for `tenant`: its override, else the
    /// global configuration, which is what `None` (or an empty name,
    /// the default namespace) reads.
    pub fn config_as(&self, tenant: Option<&str>) -> ReStoreConfig {
        self.read_config_as(tenant, ReStoreConfig::clone)
    }

    /// [`ReStore::config_as`], read in place by `f`: a per-submission
    /// caller that needs one field borrows the policy instead of
    /// cloning all of it.
    pub fn read_config_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&ReStoreConfig) -> R,
    ) -> R {
        match Self::space_name(tenant) {
            "" => f(&self.config.read()),
            _ => self.read_effective_config(&self.space_snapshot(tenant), f),
        }
    }

    /// The global configuration: [`ReStore::config_as`] with `None`.
    /// The one tenant-less shorthand besides
    /// [`ReStore::execute_query`], kept because `restore-e2e` calls
    /// both.
    pub fn config(&self) -> ReStoreConfig {
        self.config.read().clone()
    }

    /// Set a tenant's policy override: that tenant's queries now run
    /// with `config` — heuristic, §5 selection, eviction sweeps, quotas
    /// — independent of the global default. With `tenant = None` (or an
    /// empty name) this sets the global configuration itself, which
    /// every tenant without an override follows (experiments flip reuse
    /// and heuristics this way while keeping the warmed repository).
    /// Queries already in flight keep the configuration they started
    /// with.
    pub fn set_config_as(&self, tenant: Option<&str>, config: ReStoreConfig) {
        match Self::space_name(tenant) {
            "" => {
                let mut guard = self.config.write();
                // Journal while still holding the write guard, so record
                // order matches application order under racing setters.
                self.journal.append_global_config(&config);
                *guard = config;
            }
            t => {
                let space = self.space_for(tenant);
                space.config.update_then(
                    |c| *c = Some(config.clone()),
                    |_| self.journal.append_tenant_config(t, Some(&config)),
                );
            }
        }
    }

    /// Drop a tenant's policy override; its queries follow the global
    /// default again. A no-op for unknown tenants and for the default
    /// namespace, which holds no override.
    pub fn clear_config_as(&self, tenant: &str) {
        if let Some(space) = self.spaces.load().get(tenant).filter(|_| !tenant.is_empty()) {
            space
                .config
                .update_then(|c| *c = None, |_| self.journal.append_tenant_config(tenant, None));
        }
    }
}
