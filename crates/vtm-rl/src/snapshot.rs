//! Versioned policy checkpoints: the durable form of a trained agent.
//!
//! A [`PolicySnapshot`] captures *everything* that determines a
//! [`PpoAgent`](crate::ppo::PpoAgent)'s future behaviour — actor and critic networks, the policy
//! log-std, both Adam moment sets, the log-std optimizer, the agent's RNG
//! position and the optional observation normalizer — so that
//!
//! * `snapshot → restore` reproduces the agent bit-for-bit,
//! * `save_to → load_from` survives a process boundary with the same
//!   guarantee (the on-disk format stores exact `f64` bit patterns), and
//! * training `k` episodes, checkpointing, and resuming for `n − k` episodes
//!   is indistinguishable from training `n` episodes in one run.
//!
//! Files use the [`vtm_nn::codec`] container (magic, version, kind,
//! checksum), so corrupt or truncated checkpoints fail with a typed
//! [`SnapshotError`] — never a panic — and a bare network file cannot be
//! loaded as a policy by mistake.

use std::fmt;
use std::path::Path;

use vtm_nn::codec::{CodecError, PayloadReader, PayloadWriter, WeightCodec, KIND_POLICY};
use vtm_nn::mlp::Mlp;
use vtm_nn::optimizer::{Adam, VectorAdam};

use crate::env::ActionSpace;
use crate::ppo::PpoConfig;
use crate::running_stat::RunningMeanStd;

/// Typed failure modes of snapshot persistence.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying container or payload was unreadable (i/o, bad magic,
    /// unsupported version, checksum mismatch, truncation, wrong kind).
    Codec(CodecError),
    /// The file decoded but describes an inconsistent policy (e.g. a network
    /// whose shape disagrees with the stored configuration).
    Incompatible(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(err) => write!(f, "snapshot codec error: {err}"),
            SnapshotError::Incompatible(msg) => write!(f, "incompatible snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Codec(err) => Some(err),
            SnapshotError::Incompatible(_) => None,
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(err: CodecError) -> Self {
        SnapshotError::Codec(err)
    }
}

/// The complete persisted state of a PPO policy. Produced by
/// [`PpoAgent::snapshot`](crate::ppo::PpoAgent::snapshot), consumed by
/// [`PpoAgent::restore`](crate::ppo::PpoAgent::restore) and by the serving
/// layer (which only reads the frozen actor side).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// The agent's hyper-parameters (also pins obs/action dimensions).
    pub config: PpoConfig,
    /// The environment action space the policy was trained for.
    pub action_space: ActionSpace,
    /// Actor network (observation → Gaussian mean).
    pub actor: Mlp,
    /// Critic network (observation → value).
    pub critic: Mlp,
    /// Trainable log standard deviation of the Gaussian policy.
    pub log_std: Vec<f64>,
    /// Actor optimizer state (moments + step counter).
    pub actor_optimizer: Adam,
    /// Critic optimizer state.
    pub critic_optimizer: Adam,
    /// Log-std optimizer state.
    pub log_std_optimizer: VectorAdam,
    /// How many internal RNG streams the agent has consumed; restoring it
    /// keeps the exploration-noise sequence aligned across a checkpoint.
    pub rng_draws: u64,
    /// Optional frozen observation normalizer.
    pub obs_normalizer: Option<RunningMeanStd>,
    /// Training rounds completed when the snapshot was taken. The agent
    /// itself does not consume this; the [`Trainer`](crate::trainer::Trainer)
    /// stores and reads it so a resumed run continues the per-round
    /// environment and collector seed schedule exactly where it stopped.
    pub trained_rounds: u64,
    /// Environment replicas per collection round of the run that produced
    /// the snapshot (`0` = unrecorded). The `(seed, round, replica)` seed
    /// schedule is parameterized by this count, so a resumed run must reuse
    /// it to stay bit-identical to an uninterrupted run; resume tooling
    /// defaults to this value when the caller does not override it.
    pub trained_collectors: u64,
}

impl PolicySnapshot {
    /// Overrides the recorded training-round counter (builder style).
    pub fn with_trained_rounds(mut self, rounds: u64) -> Self {
        self.trained_rounds = rounds;
        self
    }

    /// Overrides the recorded collector count (builder style).
    pub fn with_trained_collectors(mut self, collectors: u64) -> Self {
        self.trained_collectors = collectors;
        self
    }

    /// Checks the snapshot's internal consistency: hyper-parameter ranges,
    /// network shapes against the configuration, finite network weights and
    /// biases, optimizer moment shapes against their networks, log-std
    /// length against the action dimension, and the normalizer dimension
    /// against the observation dimension — so a well-framed but corrupt file
    /// is rejected with a typed error here instead of panicking inside
    /// [`PpoAgent::restore`](crate::ppo::PpoAgent::restore), a later update
    /// step or the first priced quote.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Incompatible`] naming the first mismatch.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let err = |msg: String| Err(SnapshotError::Incompatible(msg));
        self.config
            .check()
            .map_err(|msg| SnapshotError::Incompatible(format!("config: {msg}")))?;
        if self.actor.input_dim() != self.config.obs_dim {
            return err(format!(
                "actor input {} != obs_dim {}",
                self.actor.input_dim(),
                self.config.obs_dim
            ));
        }
        if self.actor.output_dim() != self.config.action_dim {
            return err(format!(
                "actor output {} != action_dim {}",
                self.actor.output_dim(),
                self.config.action_dim
            ));
        }
        if self.critic.input_dim() != self.config.obs_dim || self.critic.output_dim() != 1 {
            return err(format!(
                "critic shape {}x{} != {}x1",
                self.critic.input_dim(),
                self.critic.output_dim(),
                self.config.obs_dim
            ));
        }
        if self.log_std.len() != self.config.action_dim {
            return err(format!(
                "log-std length {} != action_dim {}",
                self.log_std.len(),
                self.config.action_dim
            ));
        }
        if self.action_space.dim() != self.config.action_dim {
            return err(format!(
                "action space dimension {} != action_dim {}",
                self.action_space.dim(),
                self.config.action_dim
            ));
        }
        for (d, (lo, hi)) in self
            .action_space
            .low
            .iter()
            .zip(self.action_space.high.iter())
            .enumerate()
        {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return err(format!(
                    "action space bounds [{lo}, {hi}] of dimension {d} are not finite low < high"
                ));
            }
        }
        if self.log_std.iter().any(|v| !v.is_finite()) {
            return err("log-std contains non-finite values".to_string());
        }
        // The hidden-layer chain must match the stored networks, or a
        // restored agent would carry (and re-serialize) wrong architecture
        // metadata. A non-finite weight or bias would load, then turn every
        // forward pass (and so every quoted price) into NaN.
        for (name, net, out_dim) in [
            ("actor", &self.actor, self.config.action_dim),
            ("critic", &self.critic, 1),
        ] {
            let non_finite = net.layers().iter().any(|l| {
                l.weights()
                    .as_slice()
                    .iter()
                    .chain(l.bias().as_slice())
                    .any(|v| !v.is_finite())
            });
            if non_finite {
                return err(format!("{name} network contains non-finite parameters"));
            }
            let widths: Vec<usize> = net.layers().iter().map(|l| l.fan_out()).collect();
            let mut expected = self.config.hidden.clone();
            expected.push(out_dim);
            if widths != expected {
                return err(format!(
                    "{name} layer widths {widths:?} != configured hidden {:?} + output {out_dim}",
                    self.config.hidden
                ));
            }
        }
        if !self.actor_optimizer.state_matches(&self.actor) {
            return err("actor optimizer moments do not match the actor network".to_string());
        }
        if !self.critic_optimizer.state_matches(&self.critic) {
            return err("critic optimizer moments do not match the critic network".to_string());
        }
        if self.log_std_optimizer.dim() != self.config.action_dim {
            return err(format!(
                "log-std optimizer dimension {} != action_dim {}",
                self.log_std_optimizer.dim(),
                self.config.action_dim
            ));
        }
        if let Some(rms) = &self.obs_normalizer {
            if rms.dim() != self.config.obs_dim {
                return err(format!(
                    "normalizer dimension {} != obs_dim {}",
                    rms.dim(),
                    self.config.obs_dim
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot into a payload writer.
    fn write_into(&self, w: &mut PayloadWriter) {
        let c = &self.config;
        w.write_usize(c.obs_dim);
        w.write_usize(c.action_dim);
        w.write_usize_vec(&c.hidden);
        w.write_f64(c.actor_lr);
        w.write_f64(c.critic_lr);
        w.write_f64(c.gamma);
        w.write_f64(c.gae_lambda);
        w.write_f64(c.clip_epsilon);
        w.write_f64(c.value_loss_coef);
        w.write_f64(c.entropy_coef);
        w.write_usize(c.update_epochs);
        w.write_usize(c.minibatch_size);
        w.write_f64(c.initial_log_std);
        w.write_f64(c.min_log_std);
        w.write_f64(c.max_grad_norm);
        w.write_bool(c.normalize_advantages);
        w.write_u64(c.seed);
        w.write_f64_vec(&self.action_space.low);
        w.write_f64_vec(&self.action_space.high);
        self.actor.write_into(w);
        self.critic.write_into(w);
        w.write_f64_vec(&self.log_std);
        self.actor_optimizer.write_into(w);
        self.critic_optimizer.write_into(w);
        self.log_std_optimizer.write_into(w);
        w.write_u64(self.rng_draws);
        match &self.obs_normalizer {
            Some(rms) => {
                w.write_bool(true);
                let (count, mean, m2) = rms.state();
                w.write_f64(count);
                w.write_f64_vec(mean);
                w.write_f64_vec(m2);
            }
            None => w.write_bool(false),
        }
        w.write_u64(self.trained_rounds);
        w.write_u64(self.trained_collectors);
    }

    /// Deserializes a snapshot from a payload reader.
    fn read_from(r: &mut PayloadReader<'_>) -> Result<Self, SnapshotError> {
        let obs_dim = r.read_usize()?;
        let action_dim = r.read_usize()?;
        if obs_dim == 0 || action_dim == 0 {
            return Err(SnapshotError::Incompatible(
                "observation and action dimensions must be positive".to_string(),
            ));
        }
        let mut config = PpoConfig::new(obs_dim, action_dim);
        config.hidden = r.read_usize_vec()?;
        config.actor_lr = r.read_f64()?;
        config.critic_lr = r.read_f64()?;
        config.gamma = r.read_f64()?;
        config.gae_lambda = r.read_f64()?;
        config.clip_epsilon = r.read_f64()?;
        config.value_loss_coef = r.read_f64()?;
        config.entropy_coef = r.read_f64()?;
        config.update_epochs = r.read_usize()?;
        config.minibatch_size = r.read_usize()?;
        config.initial_log_std = r.read_f64()?;
        config.min_log_std = r.read_f64()?;
        config.max_grad_norm = r.read_f64()?;
        config.normalize_advantages = r.read_bool()?;
        config.seed = r.read_u64()?;
        let low = r.read_f64_vec()?;
        let high = r.read_f64_vec()?;
        if low.len() != high.len() || low.is_empty() {
            return Err(SnapshotError::Incompatible(
                "action space bounds disagree in length".to_string(),
            ));
        }
        let action_space = ActionSpace { low, high };
        let actor = Mlp::read_from(r)?;
        let critic = Mlp::read_from(r)?;
        let log_std = r.read_f64_vec()?;
        let actor_optimizer = Adam::read_from(r)?;
        let critic_optimizer = Adam::read_from(r)?;
        let log_std_optimizer = VectorAdam::read_from(r)?;
        let rng_draws = r.read_u64()?;
        let obs_normalizer = if r.read_bool()? {
            let count = r.read_f64()?;
            let mean = r.read_f64_vec()?;
            let m2 = r.read_f64_vec()?;
            if mean.is_empty() || mean.len() != m2.len() || !count.is_finite() || count < 0.0 {
                return Err(SnapshotError::Incompatible(
                    "normalizer state is inconsistent".to_string(),
                ));
            }
            Some(RunningMeanStd::from_state(count, mean, m2))
        } else {
            None
        };
        let trained_rounds = r.read_u64()?;
        let trained_collectors = r.read_u64()?;
        let snapshot = Self {
            config,
            action_space,
            actor,
            critic,
            log_std,
            actor_optimizer,
            critic_optimizer,
            log_std_optimizer,
            rng_draws,
            obs_normalizer,
            trained_rounds,
            trained_collectors,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Serializes the snapshot into framed container bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        self.write_into(&mut w);
        WeightCodec::encode(KIND_POLICY, w.as_bytes())
    }

    /// Decodes a snapshot from framed container bytes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] for every form of corruption —
    /// wrong magic, unsupported version, wrong payload kind, checksum
    /// mismatch, truncation or inconsistent contents.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = WeightCodec::decode(bytes, KIND_POLICY)?;
        let mut r = PayloadReader::new(payload);
        let snapshot = Self::read_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Incompatible(format!(
                "{} trailing bytes after the snapshot",
                r.remaining()
            )));
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` in the versioned checkpoint format.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Codec`] when the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| SnapshotError::Codec(CodecError::Io(e)))
    }

    /// Reads a snapshot written by [`PolicySnapshot::save_to`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`]; corrupt or truncated files never
    /// panic.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes =
            std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Codec(CodecError::Io(e)))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ActionSpace, Environment, Step};
    use crate::ppo::PpoAgent;
    use crate::trainer::{Trainer, TrainerReport};

    #[derive(Clone)]
    struct Line;
    impl Environment for Line {
        fn observation_dim(&self) -> usize {
            2
        }
        fn action_space(&self) -> ActionSpace {
            ActionSpace::scalar(0.0, 1.0)
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![0.5, -0.5]
        }
        fn step(&mut self, action: &[f64]) -> Step {
            Step {
                observation: vec![0.5, -0.5],
                reward: -(action[0] - 0.3).powi(2),
                done: true,
            }
        }
    }

    /// `rounds` training rounds of `episodes` one-step episodes each.
    fn train(agent: &mut PpoAgent, rounds: usize, episodes: usize) -> TrainerReport {
        Trainer::for_env(Line)
            .episodes(rounds * episodes)
            .collectors(episodes)
            .max_steps(1)
            .run(agent)
            .unwrap()
    }

    fn trained_agent(seed: u64) -> PpoAgent {
        let mut agent = PpoAgent::new(
            PpoConfig::new(2, 1).with_seed(seed),
            ActionSpace::scalar(0.0, 1.0),
        );
        train(&mut agent, 3, 8);
        agent
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vtm_snapshot_{tag}_{}.vtm", std::process::id()))
    }

    #[test]
    fn snapshot_restore_is_bit_identical_in_memory() {
        let agent = trained_agent(3);
        let restored = PpoAgent::restore(&agent.snapshot());
        assert_eq!(agent, restored);
        // Deterministic actions agree exactly.
        let obs = [0.5, -0.5];
        assert_eq!(
            agent.act_deterministic(&obs),
            restored.act_deterministic(&obs)
        );
        assert_eq!(agent.value(&obs).to_bits(), restored.value(&obs).to_bits());
    }

    #[test]
    fn snapshot_survives_a_file_round_trip_bit_exactly() {
        let mut agent = trained_agent(5);
        let mut rms = RunningMeanStd::new(2);
        rms.update(&[0.1, 0.2]);
        rms.update(&[0.3, -0.4]);
        rms.update(&[0.0, 0.9]);
        agent.set_obs_normalizer(Some(rms));
        let snapshot = agent.snapshot().with_trained_rounds(7);
        let path = temp_path("roundtrip");
        snapshot.save_to(&path).unwrap();
        let loaded = PolicySnapshot::load_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(snapshot, loaded);
        assert_eq!(loaded.trained_rounds, 7);
        let restored = PpoAgent::restore(&loaded);
        assert_eq!(agent, restored);
    }

    #[test]
    fn restored_agent_continues_training_identically() {
        let mut original = trained_agent(11);
        let mut resumed = PpoAgent::restore(&original.snapshot());
        let ha = train(&mut original, 2, 8);
        let hb = train(&mut resumed, 2, 8);
        assert_eq!(ha, hb);
        assert_eq!(original, resumed);
    }

    #[test]
    fn corrupt_snapshot_files_yield_typed_errors() {
        let agent = trained_agent(13);
        let snapshot = agent.snapshot();
        let path = temp_path("corrupt");
        snapshot.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(matches!(
            PolicySnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(CodecError::BadMagic { .. }))
        ));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 200;
        assert!(matches!(
            PolicySnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(CodecError::UnsupportedVersion { .. }))
        ));
        // Checksum mismatch.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            PolicySnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
        // Truncation.
        bytes.truncate(bytes.len() - 24);
        assert!(matches!(
            PolicySnapshot::from_bytes(&bytes),
            Err(SnapshotError::Codec(CodecError::Truncated { .. }))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn network_files_cannot_be_loaded_as_policies() {
        let agent = trained_agent(17);
        let path = temp_path("wrong_kind");
        agent.actor().save_to(&path).unwrap();
        assert!(matches!(
            PolicySnapshot::load_from(&path),
            Err(SnapshotError::Codec(CodecError::WrongKind { .. }))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn well_framed_but_invalid_contents_are_typed_errors_not_panics() {
        let agent = trained_agent(23);

        // Out-of-range hyper-parameters survive the checksum (it is not
        // tamper-proof) but must be rejected at decode, before restore.
        let mut snapshot = agent.snapshot();
        snapshot.config.minibatch_size = 0;
        match PolicySnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Incompatible(msg)) => assert!(msg.contains("minibatch_size")),
            other => panic!("expected Incompatible, got {other:?}"),
        }

        let mut snapshot = agent.snapshot();
        snapshot.config.gamma = f64::NAN;
        assert!(matches!(
            PolicySnapshot::from_bytes(&snapshot.to_bytes()),
            Err(SnapshotError::Incompatible(_))
        ));

        // Inverted or non-finite action bounds would quote garbage prices.
        let mut snapshot = agent.snapshot();
        snapshot.action_space = ActionSpace {
            low: vec![50.0],
            high: vec![5.0],
        };
        match PolicySnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("bounds"), "got: {msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let mut snapshot = agent.snapshot();
        snapshot.log_std = vec![f64::INFINITY];
        assert!(matches!(
            PolicySnapshot::from_bytes(&snapshot.to_bytes()),
            Err(SnapshotError::Incompatible(_))
        ));

        // A non-finite network parameter would load and then poison every
        // forward pass: one NaN actor weight, one infinite critic bias.
        let mut snapshot = agent.snapshot();
        snapshot.actor.layers_mut()[0].weights_mut().as_mut_slice()[0] = f64::NAN;
        match PolicySnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("actor network"), "got: {msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let mut snapshot = agent.snapshot();
        let last = snapshot.critic.layers().len() - 1;
        snapshot.critic.layers_mut()[last].bias_mut().as_mut_slice()[0] = f64::INFINITY;
        match PolicySnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("critic network"), "got: {msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }

        // Optimizer moments that disagree with their network are caught too:
        // train an agent with a different architecture and graft its
        // optimizer into the snapshot.
        let mut other_cfg = PpoConfig::new(2, 1).with_seed(1);
        other_cfg.hidden = vec![8];
        let mut trained_other = PpoAgent::new(other_cfg, ActionSpace::scalar(0.0, 1.0));
        train(&mut trained_other, 1, 4);
        let mut snapshot = agent.snapshot();
        snapshot.actor_optimizer = trained_other.snapshot().actor_optimizer;
        match PolicySnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("actor optimizer"), "got: {msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    #[test]
    fn a_checkpoint_with_a_negative_grad_norm_fails_to_load() {
        // Clipping to a negative norm would scale every gradient step uphill.
        let mut snapshot = trained_agent(29).snapshot();
        snapshot.config.max_grad_norm = -0.5;
        let path = temp_path("negative_grad_norm");
        snapshot.save_to(&path).unwrap();
        let loaded = PolicySnapshot::load_from(&path);
        std::fs::remove_file(&path).unwrap();
        match loaded {
            Err(SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("max_grad_norm"), "got: {msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_snapshots_fail_validation() {
        let a = trained_agent(19);
        let b = PpoAgent::new(
            PpoConfig::new(3, 1).with_seed(0),
            ActionSpace::scalar(0.0, 1.0),
        );
        let mut snapshot = a.snapshot();
        snapshot.actor = b.actor().clone();
        assert!(matches!(
            snapshot.validate(),
            Err(SnapshotError::Incompatible(_))
        ));
        let display = snapshot.validate().unwrap_err().to_string();
        assert!(display.contains("actor input"));
    }
}
