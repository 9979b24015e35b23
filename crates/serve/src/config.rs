//! Server configuration through the established `POSETRL_*` env-budget
//! machinery.
//!
//! Every knob is read with `posetrl_analyze::validate::parse_env_budget`:
//! unset falls back to the default, a malformed value is a structured
//! [`EnvParseError`] the CLI turns into exit code 2 (the shared usage
//! class), matching PR-5's fail-fast convention.

use posetrl::EvalCache;
use posetrl_analyze::validate::parse_env_budget;
use posetrl_analyze::EnvParseError;

/// Admission-control and sizing knobs for one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads (`POSETRL_SERVE_WORKERS`).
    pub workers: usize,
    /// Per-request module-text byte budget
    /// (`POSETRL_SERVE_MAX_MODULE_BYTES`).
    pub max_module_bytes: usize,
    /// Episode-length cap per request (`POSETRL_SERVE_STEPS`); requests
    /// asking for more are clamped, keeping budgets deterministic.
    pub max_steps: u64,
    /// Per-worker admission queue depth (`POSETRL_SERVE_QUEUE`); a full
    /// queue rejects with an `overloaded` error instead of blocking.
    pub queue_depth: usize,
    /// Content-addressed response store capacity, entries
    /// (`POSETRL_SERVE_STORE_CAP`).
    pub store_capacity: usize,
    /// Eval-cache capacity, entries per memo class: steps, measurements
    /// and embeddings are each bounded at this count
    /// (`POSETRL_SERVE_CACHE_CAP`).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            max_module_bytes: 1 << 20,
            max_steps: 15,
            queue_depth: 32,
            store_capacity: 4096,
            cache_capacity: EvalCache::DEFAULT_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// Reads the knobs through `lookup`. Pure over `lookup` so unit tests
    /// never race on the process environment.
    ///
    /// # Errors
    ///
    /// [`EnvParseError`] naming the offending variable and value.
    pub fn from_vars(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<ServeConfig, EnvParseError> {
        let d = ServeConfig::default();
        macro_rules! get {
            ($key:literal, $dflt:expr) => {
                parse_env_budget($key, lookup($key).as_deref(), $dflt)?
            };
        }
        let cfg = ServeConfig {
            workers: get!("POSETRL_SERVE_WORKERS", d.workers),
            max_module_bytes: get!("POSETRL_SERVE_MAX_MODULE_BYTES", d.max_module_bytes),
            max_steps: get!("POSETRL_SERVE_STEPS", d.max_steps),
            queue_depth: get!("POSETRL_SERVE_QUEUE", d.queue_depth),
            store_capacity: get!("POSETRL_SERVE_STORE_CAP", d.store_capacity),
            cache_capacity: get!("POSETRL_SERVE_CACHE_CAP", d.cache_capacity),
        };
        Ok(cfg.normalized())
    }

    /// Reads the knobs from the process environment.
    ///
    /// # Errors
    ///
    /// [`EnvParseError`] naming the offending variable and value.
    pub fn from_env() -> Result<ServeConfig, EnvParseError> {
        ServeConfig::from_vars(|k| std::env::var(k).ok())
    }

    /// Clamps degenerate values (zero workers/queues) to workable minima.
    pub fn normalized(mut self) -> ServeConfig {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.store_capacity = self.store_capacity.max(1);
        self.cache_capacity = self.cache_capacity.max(1);
        self.max_steps = self.max_steps.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_vars_yield_defaults() {
        let cfg = ServeConfig::from_vars(|_| None).unwrap();
        assert_eq!(cfg, ServeConfig::default());
    }

    #[test]
    fn set_vars_override() {
        let cfg = ServeConfig::from_vars(|k| match k {
            "POSETRL_SERVE_WORKERS" => Some("8".into()),
            "POSETRL_SERVE_QUEUE" => Some("2".into()),
            "POSETRL_SERVE_STEPS" => Some("5".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.queue_depth, 2);
        assert_eq!(cfg.max_steps, 5);
        assert_eq!(cfg.store_capacity, ServeConfig::default().store_capacity);
    }

    #[test]
    fn malformed_vars_are_structured_errors() {
        let err =
            ServeConfig::from_vars(|k| (k == "POSETRL_SERVE_WORKERS").then(|| "four".to_string()))
                .unwrap_err();
        assert_eq!(err.key, "POSETRL_SERVE_WORKERS");
        assert_eq!(err.value, "four");
    }

    #[test]
    fn zero_knobs_are_normalized() {
        let cfg = ServeConfig::from_vars(|k| match k {
            "POSETRL_SERVE_WORKERS" => Some("0".into()),
            "POSETRL_SERVE_QUEUE" => Some("0".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_depth, 1);
    }
}
