//! Proximal Policy Optimization with a Gaussian policy and an MLP actor-critic.
//!
//! This is the learning algorithm of the paper's §IV: an actor network maps
//! the MSP's observation to the mean of a Gaussian over the pricing action,
//! a critic network estimates the state value, and both are updated with the
//! clipped surrogate objective (Eqs. 14–19) on mini-batches sampled from the
//! rollout buffer, with advantages computed by Generalized Advantage
//! Estimation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rand::seq::SliceRandom;
use vtm_nn::matrix::Matrix;
use vtm_nn::mlp::{Mlp, MlpConfig, MlpGrads, TrainWorkspace};
use vtm_nn::optimizer::{Adam, VectorAdam};

use crate::buffer::{ProcessedSample, RolloutBuffer, Transition};
use crate::distribution::DiagGaussian;
use crate::env::{ActionSpace, Environment};
use crate::running_stat::RunningMeanStd;
use crate::snapshot::PolicySnapshot;

/// Hyper-parameters of the PPO agent.
///
/// The defaults follow the paper's §V-A experimental settings where stated
/// (two hidden layers of 64 units, learning rate `1e-5`, `M = 10` update
/// epochs, mini-batch size `|I| = 20`) and standard PPO practice elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Action dimensionality.
    pub action_dim: usize,
    /// Hidden layer widths shared by actor and critic.
    pub hidden: Vec<usize>,
    /// Learning rate of the actor (and the policy log-std).
    pub actor_lr: f64,
    /// Learning rate of the critic.
    pub critic_lr: f64,
    /// Reward discount factor γ.
    pub gamma: f64,
    /// GAE smoothing factor λ (λ = 1 reproduces the paper's Eq. (18)).
    pub gae_lambda: f64,
    /// PPO clipping parameter ε of Eq. (19).
    pub clip_epsilon: f64,
    /// Coefficient `c` of the value-function loss in Eq. (14).
    pub value_loss_coef: f64,
    /// Entropy-bonus coefficient encouraging exploration.
    pub entropy_coef: f64,
    /// Number of optimisation epochs per update (`M` in Algorithm 1).
    pub update_epochs: usize,
    /// Mini-batch size (`|I|` in Algorithm 1).
    pub minibatch_size: usize,
    /// Initial log standard deviation of the Gaussian policy.
    pub initial_log_std: f64,
    /// Lower bound applied to the log standard deviation during training.
    pub min_log_std: f64,
    /// Global gradient-norm clip applied to actor and critic gradients.
    pub max_grad_norm: f64,
    /// Whether advantages are normalised per update.
    pub normalize_advantages: bool,
    /// Seed for network initialisation and sampling.
    pub seed: u64,
}

impl PpoConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// observation and action dimensions.
    pub fn new(obs_dim: usize, action_dim: usize) -> Self {
        Self {
            obs_dim,
            action_dim,
            hidden: vec![64, 64],
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            gamma: 0.95,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            value_loss_coef: 0.5,
            entropy_coef: 0.01,
            update_epochs: 10,
            minibatch_size: 20,
            initial_log_std: -0.5,
            min_log_std: -4.0,
            max_grad_norm: 0.5,
            normalize_advantages: true,
            seed: 0,
        }
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every hyper-parameter range, returning a description of the
    /// first problem. Used both by [`PpoAgent::new`] (which panics on `Err`)
    /// and by the snapshot loader, which must reject a well-framed but
    /// corrupt checkpoint with a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending parameter.
    pub fn check(&self) -> Result<(), String> {
        if self.obs_dim == 0 {
            return Err("obs_dim must be positive".to_string());
        }
        if self.action_dim == 0 {
            return Err("action_dim must be positive".to_string());
        }
        let positive_finite = |v: f64| v.is_finite() && v > 0.0;
        if !positive_finite(self.actor_lr) || !positive_finite(self.critic_lr) {
            return Err("learning rates must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0,1]".to_string());
        }
        if !(0.0..=1.0).contains(&self.gae_lambda) {
            return Err("lambda must be in [0,1]".to_string());
        }
        if !positive_finite(self.clip_epsilon) {
            return Err("clip epsilon must be positive".to_string());
        }
        // A norm <= 0 would scale every gradient step uphill or to zero and
        // NaN would silently skip clipping; +inf is allowed and means no clip.
        if self.max_grad_norm.is_nan() || self.max_grad_norm <= 0.0 {
            return Err("max_grad_norm must be positive".to_string());
        }
        for (name, value) in [
            ("value_loss_coef", self.value_loss_coef),
            ("entropy_coef", self.entropy_coef),
            ("initial_log_std", self.initial_log_std),
            ("min_log_std", self.min_log_std),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite"));
            }
        }
        if self.update_epochs == 0 {
            return Err("update_epochs must be positive".to_string());
        }
        if self.minibatch_size == 0 {
            return Err("minibatch_size must be positive".to_string());
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// Statistics of one PPO update, useful for monitoring convergence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpoUpdateStats {
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f64,
    /// Mean value-function loss (before the `c` coefficient).
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Mean approximate KL divergence between old and new policy.
    pub approx_kl: f64,
    /// Fraction of samples whose importance ratio was clipped.
    pub clip_fraction: f64,
    /// Number of gradient steps performed.
    pub gradient_steps: usize,
}

/// An action sampled from the policy together with the quantities PPO must store.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSample {
    /// Raw (unsquashed) policy output; this is what the buffer must store.
    pub raw_action: Vec<f64>,
    /// Action mapped into the environment's action space.
    pub env_action: Vec<f64>,
    /// Log-probability of `raw_action` under the current policy.
    pub log_prob: f64,
    /// Critic value estimate of the observation.
    pub value: f64,
}

/// Reusable buffers for the PPO update path.
///
/// The agent owns one workspace for its whole lifetime. The minibatch
/// order, each half's gathers, forward/backward caches ([`TrainWorkspace`]),
/// gradient scratch ([`MlpGrads`]) and the batched-Gaussian intermediates
/// are all resized in place, so minibatch steps allocate nothing in steady
/// state. The actor and critic halves own disjoint buffers because they run
/// on different threads.
#[derive(Debug, Clone, PartialEq, Default)]
struct UpdateWorkspace {
    /// Every epoch's shuffle of the sample indices, dealt back to back.
    order: Vec<usize>,
    /// Scratch of the actor half.
    actor: ActorWorkspace,
    /// Scratch of the critic half.
    critic: CriticWorkspace,
}

/// Scratch of the actor half of an update.
#[derive(Debug, Clone, PartialEq, Default)]
struct ActorWorkspace {
    /// Gathered minibatch observations (`batch x obs_dim`).
    obs: Matrix,
    /// Gathered minibatch actions (`batch x action_dim`).
    actions: Matrix,
    /// New-policy log-probabilities (batched Gaussian output).
    new_log_probs: Vec<f64>,
    /// Batched `d log_prob / d mean` rows.
    grad_mean_rows: Matrix,
    /// Batched `d log_prob / d log_std` rows.
    grad_log_std_rows: Matrix,
    /// Loss gradient w.r.t. the actor output (means).
    grad_mean: Matrix,
    /// Accumulated log-std gradient.
    grad_log_std: Vec<f64>,
    /// Actor forward/backward caches.
    net: TrainWorkspace,
    /// Actor parameter-gradient scratch.
    grads: MlpGrads,
    /// One Gaussian reused across all minibatches (mean/log-std are copied
    /// in place, never reallocated).
    dist: Option<DiagGaussian>,
}

/// Scratch of the critic half of an update.
#[derive(Debug, Clone, PartialEq, Default)]
struct CriticWorkspace {
    /// Gathered minibatch observations (`batch x obs_dim`).
    obs: Matrix,
    /// Loss gradient w.r.t. the critic output (values).
    grad_values: Matrix,
    /// Critic forward/backward caches.
    net: TrainWorkspace,
    /// Critic parameter-gradient scratch.
    grads: MlpGrads,
}

/// The state the actor half of an update borrows: the policy network, its
/// log-std, both their optimizers and the actor scratch.
struct ActorHalf<'a> {
    config: &'a PpoConfig,
    net: &'a mut Mlp,
    optimizer: &'a mut Adam,
    log_std: &'a mut [f64],
    log_std_optimizer: &'a mut VectorAdam,
    ws: &'a mut ActorWorkspace,
}

/// The state the critic half of an update borrows: the value network, its
/// optimizer and the critic scratch.
struct CriticHalf<'a> {
    config: &'a PpoConfig,
    net: &'a mut Mlp,
    optimizer: &'a mut Adam,
    ws: &'a mut CriticWorkspace,
}

/// The PPO agent: Gaussian actor, value critic and their optimizers.
#[derive(Debug, Clone)]
pub struct PpoAgent {
    config: PpoConfig,
    action_space: ActionSpace,
    actor: Mlp,
    critic: Mlp,
    log_std: Vec<f64>,
    actor_optimizer: Adam,
    critic_optimizer: Adam,
    log_std_optimizer: VectorAdam,
    rng: StdRngState,
    /// Optional frozen observation normalizer applied before every actor and
    /// critic forward pass. `None` (the default) leaves observations
    /// untouched; a serving deployment typically loads one from a
    /// [`PolicySnapshot`].
    obs_normalizer: Option<RunningMeanStd>,
    /// Scratch for the fused update path; excluded from [`PartialEq`] because
    /// it is pure cache (its contents never influence future results).
    update_ws: UpdateWorkspace,
}

impl PartialEq for PpoAgent {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.action_space == other.action_space
            && self.actor == other.actor
            && self.critic == other.critic
            && self.log_std == other.log_std
            && self.actor_optimizer == other.actor_optimizer
            && self.critic_optimizer == other.critic_optimizer
            && self.log_std_optimizer == other.log_std_optimizer
            && self.rng == other.rng
            && self.obs_normalizer == other.obs_normalizer
    }
}

/// Serializable wrapper around the RNG seed/state. The RNG itself is rebuilt
/// from the stored seed and a draw counter so that agents can be serialised.
#[derive(Debug, Clone, PartialEq)]
struct StdRngState {
    seed: u64,
    draws: u64,
}

impl PpoAgent {
    /// Builds a new agent for the given action space.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the action-space dimension
    /// does not match `config.action_dim`.
    pub fn new(config: PpoConfig, action_space: ActionSpace) -> Self {
        config.validate();
        assert_eq!(
            action_space.dim(),
            config.action_dim,
            "action space dimension must match config.action_dim"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let actor =
            MlpConfig::new(config.obs_dim, &config.hidden, config.action_dim).build(&mut rng);
        let critic = MlpConfig::new(config.obs_dim, &config.hidden, 1).build(&mut rng);
        let log_std = vec![config.initial_log_std; config.action_dim];
        Self {
            actor_optimizer: Adam::new(config.actor_lr),
            critic_optimizer: Adam::new(config.critic_lr),
            log_std_optimizer: VectorAdam::new(config.actor_lr, config.action_dim),
            rng: StdRngState {
                seed: config.seed,
                draws: 0,
            },
            config,
            action_space,
            actor,
            critic,
            log_std,
            obs_normalizer: None,
            update_ws: UpdateWorkspace::default(),
        }
    }

    /// Captures the agent's complete mutable state — networks, policy
    /// log-std, optimizer moments, RNG position and the optional observation
    /// normalizer — as a [`PolicySnapshot`].
    ///
    /// Restoring the snapshot (in this process or after a save/load round
    /// trip through [`PolicySnapshot::save_to`]) yields an agent that is
    /// bit-identical for every future `act`/`update` call, which is what
    /// makes checkpoint-and-resume training exactly equivalent to an
    /// uninterrupted run.
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            config: self.config.clone(),
            action_space: self.action_space.clone(),
            actor: self.actor.clone(),
            critic: self.critic.clone(),
            log_std: self.log_std.clone(),
            actor_optimizer: self.actor_optimizer.clone(),
            critic_optimizer: self.critic_optimizer.clone(),
            log_std_optimizer: self.log_std_optimizer.clone(),
            rng_draws: self.rng.draws,
            obs_normalizer: self.obs_normalizer.clone(),
            trained_rounds: 0,
            trained_collectors: 0,
        }
    }

    /// Rebuilds an agent from a [`PolicySnapshot`] (the inverse of
    /// [`PpoAgent::snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is internally inconsistent (network shapes
    /// disagreeing with the configuration). Snapshots loaded through
    /// [`PolicySnapshot::load_from`] are validated before this point, so a
    /// corrupt file surfaces as a typed error there, never as a panic here.
    pub fn restore(snapshot: &PolicySnapshot) -> Self {
        snapshot
            .validate()
            .expect("snapshot must be internally consistent");
        let mut agent = PpoAgent::new(snapshot.config.clone(), snapshot.action_space.clone());
        agent.actor = snapshot.actor.clone();
        agent.critic = snapshot.critic.clone();
        agent.log_std = snapshot.log_std.clone();
        agent.actor_optimizer = snapshot.actor_optimizer.clone();
        agent.critic_optimizer = snapshot.critic_optimizer.clone();
        agent.log_std_optimizer = snapshot.log_std_optimizer.clone();
        agent.rng.draws = snapshot.rng_draws;
        agent.obs_normalizer = snapshot.obs_normalizer.clone();
        agent
    }

    /// The frozen observation normalizer, if one is installed.
    pub fn obs_normalizer(&self) -> Option<&RunningMeanStd> {
        self.obs_normalizer.as_ref()
    }

    /// Installs (or removes) a frozen observation normalizer. When present,
    /// every actor and critic forward pass normalizes the observation first.
    ///
    /// This is an *inference-time* feature: install it on a policy that was
    /// trained on normalized features (or for serving). The PPO update path
    /// consumes raw buffered observations, so [`PpoAgent::update`] refuses
    /// (panics) while a normalizer is installed — remove it before training.
    ///
    /// # Panics
    ///
    /// Panics if the normalizer dimension does not match the observation
    /// dimension.
    pub fn set_obs_normalizer(&mut self, normalizer: Option<RunningMeanStd>) {
        if let Some(rms) = &normalizer {
            assert_eq!(
                rms.dim(),
                self.config.obs_dim,
                "normalizer dimension must match the observation dimension"
            );
        }
        self.obs_normalizer = normalizer;
    }

    /// Immutable view of the actor network (used by equivalence tests).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Immutable view of the critic network (used by equivalence tests).
    pub fn critic(&self) -> &Mlp {
        &self.critic
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// The action space the agent was built for.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Current log standard deviation of the policy.
    pub fn log_std(&self) -> &[f64] {
        &self.log_std
    }

    /// Total number of trainable parameters (actor + critic + log-std).
    pub fn parameter_count(&self) -> usize {
        self.actor.parameter_count() + self.critic.parameter_count() + self.log_std.len()
    }

    fn next_rng(&mut self) -> StdRng {
        self.rng.draws += 1;
        StdRng::seed_from_u64(
            self.rng
                .seed
                .wrapping_add(self.rng.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    fn policy_mean(&self, observation: &[f64]) -> Vec<f64> {
        match &self.obs_normalizer {
            Some(rms) => self.actor.forward_vec(&rms.normalize(observation)),
            None => self.actor.forward_vec(observation),
        }
        .expect("observation dimension mismatch with actor network")
    }

    /// Critic value estimate for an observation.
    pub fn value(&self, observation: &[f64]) -> f64 {
        match &self.obs_normalizer {
            Some(rms) => self.critic.forward_vec(&rms.normalize(observation)),
            None => self.critic.forward_vec(observation),
        }
        .expect("observation dimension mismatch with critic network")[0]
    }

    /// Samples a stochastic action (used during training).
    pub fn act(&mut self, observation: &[f64]) -> ActionSample {
        let mut rng = self.next_rng();
        self.act_with_rng(observation, &mut rng)
    }

    /// Samples a stochastic action from an external RNG stream, leaving the
    /// agent's internal stream untouched.
    ///
    /// This is the building block of the vectorized rollout collector: each
    /// parallel environment owns one deterministic stream, so the trajectory
    /// of an environment depends only on its own stream and the (frozen)
    /// policy parameters — never on scheduling.
    pub fn act_with_rng<R: Rng + ?Sized>(&self, observation: &[f64], rng: &mut R) -> ActionSample {
        let mean = self.policy_mean(observation);
        let dist = DiagGaussian::new(mean, self.log_std.clone());
        let raw = dist.sample(rng);
        let log_prob = dist.log_prob(&raw);
        ActionSample {
            env_action: self.action_space.squash(&raw),
            log_prob,
            value: self.value(observation),
            raw_action: raw,
        }
    }

    /// Batched policy/value evaluation: one actor and one critic forward pass
    /// for the whole batch, then one Gaussian draw per row from its matching
    /// RNG stream.
    ///
    /// A batch of `B` observations costs one matrix product per layer instead
    /// of `2B` row-vector forward passes, which is the dominant cost of
    /// rollout collection. The result is bit-identical to calling
    /// [`PpoAgent::act_with_rng`] row by row with the same streams (see
    /// [`vtm_nn::mlp::Mlp::forward_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `observations` and `rngs` have different lengths, or if an
    /// observation does not match the configured observation dimension.
    pub fn act_batch<R: Rng>(&self, observations: &[&[f64]], rngs: &mut [R]) -> Vec<ActionSample> {
        assert_eq!(
            observations.len(),
            rngs.len(),
            "one RNG stream per observation"
        );
        if observations.is_empty() {
            return Vec::new();
        }
        // With a normalizer installed, normalize the batch once and feed the
        // same rows to both networks (values_batch would re-normalize).
        let (means, values) = match &self.obs_normalizer {
            Some(rms) => {
                let rows: Vec<Vec<f64>> = observations.iter().map(|o| rms.normalize(o)).collect();
                let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                (
                    self.actor
                        .forward_rows(&refs)
                        .expect("observation dimension mismatch with actor network"),
                    self.critic
                        .forward_rows(&refs)
                        .expect("observation dimension mismatch with critic network")
                        .into_vec(),
                )
            }
            None => (
                self.actor
                    .forward_rows(observations)
                    .expect("observation dimension mismatch with actor network"),
                self.values_batch(observations),
            ),
        };
        // One distribution reused across rows: only the mean changes, so the
        // hot path allocates one log-std clone per batch instead of per row.
        let mut dist = DiagGaussian::new(means.row(0).to_vec(), self.log_std.clone());
        rngs.iter_mut()
            .enumerate()
            .map(|(i, rng)| {
                dist.replace_mean(means.row(i).to_vec());
                let raw = dist.sample(rng);
                let log_prob = dist.log_prob(&raw);
                ActionSample {
                    env_action: self.action_space.squash(&raw),
                    log_prob,
                    value: values[i],
                    raw_action: raw,
                }
            })
            .collect()
    }

    /// Batched critic evaluation: one forward pass for all observations.
    ///
    /// # Panics
    ///
    /// Panics if an observation does not match the configured dimension.
    pub fn values_batch(&self, observations: &[&[f64]]) -> Vec<f64> {
        if observations.is_empty() {
            return Vec::new();
        }
        match &self.obs_normalizer {
            Some(rms) => {
                let rows: Vec<Vec<f64>> = observations.iter().map(|o| rms.normalize(o)).collect();
                let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                self.critic.forward_rows(&refs)
            }
            None => self.critic.forward_rows(observations),
        }
        .expect("observation dimension mismatch with critic network")
        .into_vec()
    }

    /// Returns the deterministic (mean) action for evaluation.
    pub fn act_deterministic(&self, observation: &[f64]) -> Vec<f64> {
        let mean = self.policy_mean(observation);
        self.action_space.squash(&mean)
    }

    /// Performs a PPO update on a set of processed samples.
    ///
    /// Returns per-update statistics. The samples are typically produced by
    /// [`RolloutBuffer::process`] with this agent's `gamma`/`lambda`.
    ///
    /// The update runs the actor and the critic concurrently. It first deals
    /// every epoch's shuffle into one index buffer, with the same RNG draws
    /// as [`RolloutBuffer::minibatches`]. A scoped thread then runs the
    /// critic half over every minibatch of every epoch (gather, forward,
    /// value loss, backward, gradient clip, Adam) while the calling thread
    /// runs the actor half (gather, forward, batched Gaussian, clipped
    /// surrogate, backward, gradient clip, Adam, then the log-std step and
    /// its floor). The halves join once per update; a panic in either is
    /// re-raised on the calling thread.
    ///
    /// Results are bit-identical to [`PpoAgent::update_reference`]
    /// (asserted by `vtm-bench/tests/update_equivalence.rs`): the halves
    /// share only the read-only samples and minibatch order, never a
    /// parameter, optimizer moment or clipping norm (each network clips its
    /// own gradient), and each half sums its terms in the reference order.
    /// Both halves reuse the agent's update workspace, forward/backward
    /// passes run through [`Mlp::forward_train_ws`] / [`Mlp::backward_ws`]
    /// and the Gaussian surrogate terms use the batched [`DiagGaussian`]
    /// row ops, so in steady state the thread spawn is the update's only
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if a frozen observation normalizer is installed: the buffered
    /// samples hold *raw* observations, so updating through the normalizer
    /// would compute importance ratios against a different policy than the
    /// one that acted. Remove it (`set_obs_normalizer(None)`) before
    /// training; it is an inference-time feature.
    pub fn update(&mut self, samples: &[ProcessedSample]) -> PpoUpdateStats {
        assert!(
            self.obs_normalizer.is_none(),
            "cannot train with a frozen observation normalizer installed; \
             remove it with set_obs_normalizer(None) first"
        );
        if samples.is_empty() {
            return PpoUpdateStats::default();
        }
        let mut rng = self.next_rng();
        let ws = &mut self.update_ws;
        ws.order.clear();
        for _ in 0..self.config.update_epochs {
            // Same deal as `RolloutBuffer::minibatches` (identical RNG
            // consumption), without allocating the per-batch vectors.
            let start = ws.order.len();
            ws.order.extend(0..samples.len());
            ws.order[start..].shuffle(&mut rng);
        }
        let order = &ws.order;
        let minibatch = self.config.minibatch_size;
        let minibatches = || {
            order
                .chunks(samples.len())
                .flat_map(move |epoch| epoch.chunks(minibatch))
        };
        let mut actor = ActorHalf {
            config: &self.config,
            net: &mut self.actor,
            optimizer: &mut self.actor_optimizer,
            log_std: &mut self.log_std,
            log_std_optimizer: &mut self.log_std_optimizer,
            ws: &mut ws.actor,
        };
        let mut critic = CriticHalf {
            config: &self.config,
            net: &mut self.critic,
            optimizer: &mut self.critic_optimizer,
            ws: &mut ws.critic,
        };
        let (mut stats, value_loss) = std::thread::scope(|scope| {
            let critic_thread = scope
                .spawn(|| minibatches().fold(0.0, |sum, batch| sum + critic.step(samples, batch)));
            let mut stats = PpoUpdateStats::default();
            for batch in minibatches() {
                let batch_stats = actor.step(samples, batch);
                stats.policy_loss += batch_stats.policy_loss;
                stats.entropy += batch_stats.entropy;
                stats.approx_kl += batch_stats.approx_kl;
                stats.clip_fraction += batch_stats.clip_fraction;
                stats.gradient_steps += 1;
            }
            let value_loss = critic_thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (stats, value_loss)
        });
        stats.value_loss = value_loss;
        let n = stats.gradient_steps as f64;
        stats.policy_loss /= n;
        stats.value_loss /= n;
        stats.entropy /= n;
        stats.approx_kl /= n;
        stats.clip_fraction /= n;
        stats
    }

    /// The pre-fusion PPO update, kept as the reference implementation: it
    /// allocates fresh matrices for every step and evaluates the Gaussian
    /// per sample. `vtm-bench` pins [`PpoAgent::update`] bit-identical to
    /// this path and benchmarks the speedup between the two.
    ///
    /// # Panics
    ///
    /// Panics if a frozen observation normalizer is installed (same contract
    /// as [`PpoAgent::update`]).
    pub fn update_reference(&mut self, samples: &[ProcessedSample]) -> PpoUpdateStats {
        assert!(
            self.obs_normalizer.is_none(),
            "cannot train with a frozen observation normalizer installed; \
             remove it with set_obs_normalizer(None) first"
        );
        if samples.is_empty() {
            return PpoUpdateStats::default();
        }
        let mut stats = PpoUpdateStats::default();
        let mut total_batches = 0usize;
        let mut rng = self.next_rng();
        for _ in 0..self.config.update_epochs {
            let batches = RolloutBuffer::minibatches(samples, self.config.minibatch_size, &mut rng);
            for batch in batches {
                let batch_stats = self.update_minibatch_reference(&batch);
                stats.policy_loss += batch_stats.policy_loss;
                stats.value_loss += batch_stats.value_loss;
                stats.entropy += batch_stats.entropy;
                stats.approx_kl += batch_stats.approx_kl;
                stats.clip_fraction += batch_stats.clip_fraction;
                total_batches += 1;
            }
        }
        if total_batches > 0 {
            let n = total_batches as f64;
            stats.policy_loss /= n;
            stats.value_loss /= n;
            stats.entropy /= n;
            stats.approx_kl /= n;
            stats.clip_fraction /= n;
        }
        stats.gradient_steps = total_batches;
        stats
    }

    fn update_minibatch_reference(&mut self, batch: &[&ProcessedSample]) -> PpoUpdateStats {
        let batch_size = batch.len();
        let inv_n = 1.0 / batch_size as f64;
        let obs_rows: Vec<&[f64]> = batch.iter().map(|s| s.observation.as_slice()).collect();
        let obs = Matrix::from_rows(&obs_rows).expect("ragged observation batch");

        // ---------------- Actor ----------------
        let (means, actor_caches) = self
            .actor
            .forward_train(&obs)
            .expect("actor forward failed");
        let mut grad_mean = Matrix::zeros(batch_size, self.config.action_dim);
        let mut grad_log_std = vec![0.0; self.config.action_dim];
        let mut policy_loss = 0.0;
        let mut entropy_total = 0.0;
        let mut approx_kl = 0.0;
        let mut clipped = 0usize;
        let eps = self.config.clip_epsilon;

        for (i, sample) in batch.iter().enumerate() {
            let mean_i: Vec<f64> = means.row(i).to_vec();
            let dist = DiagGaussian::new(mean_i, self.log_std.clone());
            let new_log_prob = dist.log_prob(&sample.action);
            let ratio = (new_log_prob - sample.old_log_prob).exp();
            let advantage = sample.advantage;
            let surr1 = ratio * advantage;
            let clipped_ratio = ratio.clamp(1.0 - eps, 1.0 + eps);
            let surr2 = clipped_ratio * advantage;
            policy_loss += -surr1.min(surr2) * inv_n;
            entropy_total += dist.entropy() * inv_n;
            approx_kl += (sample.old_log_prob - new_log_prob) * inv_n;
            if (ratio - clipped_ratio).abs() > 1e-12 {
                clipped += 1;
            }

            // d(-min(surr1, surr2))/d(log pi): -A * ratio when the unclipped
            // branch is active, 0 otherwise (the clipped branch is constant in
            // the parameters).
            let dloss_dlogp = if surr1 <= surr2 {
                -advantage * ratio
            } else {
                0.0
            } * inv_n;
            if dloss_dlogp != 0.0 {
                let gm = dist.log_prob_grad_mean(&sample.action);
                let gs = dist.log_prob_grad_log_std(&sample.action);
                for j in 0..self.config.action_dim {
                    grad_mean[(i, j)] += dloss_dlogp * gm[j];
                    grad_log_std[j] += dloss_dlogp * gs[j];
                }
            }
            // Entropy bonus: loss -= entropy_coef * H, dH/dlog_std_j = 1.
            for g in grad_log_std.iter_mut() {
                *g -= self.config.entropy_coef * inv_n;
            }
        }

        let (_, mut actor_grads) = self
            .actor
            .backward(&actor_caches, &grad_mean)
            .expect("actor backward failed");
        actor_grads.clip_global_norm(self.config.max_grad_norm);
        self.actor_optimizer.step(&mut self.actor, &actor_grads);
        self.log_std_optimizer
            .step(&mut self.log_std, &grad_log_std);
        for ls in &mut self.log_std {
            *ls = ls.max(self.config.min_log_std);
        }

        // ---------------- Critic ----------------
        let (values, critic_caches) = self
            .critic
            .forward_train(&obs)
            .expect("critic forward failed");
        let mut grad_values = Matrix::zeros(batch_size, 1);
        let mut value_loss = 0.0;
        for (i, sample) in batch.iter().enumerate() {
            let v = values[(i, 0)];
            let err = v - sample.value_target;
            value_loss += err * err * inv_n;
            grad_values[(i, 0)] = self.config.value_loss_coef * 2.0 * err * inv_n;
        }
        let (_, mut critic_grads) = self
            .critic
            .backward(&critic_caches, &grad_values)
            .expect("critic backward failed");
        critic_grads.clip_global_norm(self.config.max_grad_norm);
        self.critic_optimizer.step(&mut self.critic, &critic_grads);

        PpoUpdateStats {
            policy_loss,
            value_loss,
            entropy: entropy_total,
            approx_kl,
            clip_fraction: clipped as f64 / batch_size as f64,
            gradient_steps: 1,
        }
    }

    /// Collects `episodes` complete episodes from `env` into `buffer`,
    /// returning the undiscounted return of each episode.
    ///
    /// `max_steps` bounds the episode length for environments that never set
    /// `done` (the paper's pricing game runs a fixed `K` rounds per episode).
    pub fn collect_episodes<E: Environment>(
        &mut self,
        env: &mut E,
        episodes: usize,
        max_steps: usize,
        buffer: &mut RolloutBuffer,
    ) -> Vec<f64> {
        let mut returns = Vec::with_capacity(episodes);
        for _ in 0..episodes {
            let mut obs = env.reset();
            let mut total = 0.0;
            for step_idx in 0..max_steps {
                let sample = self.act(&obs);
                let step = env.step(&sample.env_action);
                total += step.reward;
                let done = step.done || step_idx + 1 == max_steps;
                buffer.push(Transition {
                    observation: obs.clone(),
                    action: sample.raw_action,
                    log_prob: sample.log_prob,
                    value: sample.value,
                    reward: step.reward,
                    done,
                });
                obs = step.observation;
                if step.done {
                    break;
                }
            }
            returns.push(total);
        }
        returns
    }
}

impl ActorHalf<'_> {
    /// One actor step over `samples[batch]`: the clipped surrogate with its
    /// entropy bonus, then the actor and log-std optimizer steps. Returns
    /// every statistic but the value loss.
    ///
    /// Mirrors the actor half of [`PpoAgent::update_minibatch_reference`]
    /// operation for operation — every sum accumulates in the same order —
    /// so the two paths stay bit-identical while this one reuses `ws`.
    fn step(&mut self, samples: &[ProcessedSample], batch: &[usize]) -> PpoUpdateStats {
        let ws = &mut *self.ws;
        let batch_size = batch.len();
        let inv_n = 1.0 / batch_size as f64;
        let action_dim = self.config.action_dim;

        ws.obs.resize(batch_size, self.config.obs_dim);
        ws.actions.resize(batch_size, action_dim);
        for (r, &idx) in batch.iter().enumerate() {
            ws.obs.row_mut(r).copy_from_slice(&samples[idx].observation);
            ws.actions.row_mut(r).copy_from_slice(&samples[idx].action);
        }

        self.net
            .forward_train_ws(&ws.obs, &mut ws.net)
            .expect("actor forward failed");
        let dist = ws
            .dist
            .get_or_insert_with(|| DiagGaussian::new(vec![0.0; action_dim], vec![0.0; action_dim]));
        dist.set_log_std(self.log_std);
        let means = ws.net.output();
        dist.log_prob_rows(means, &ws.actions, &mut ws.new_log_probs);
        dist.grad_mean_rows(means, &ws.actions, &mut ws.grad_mean_rows);
        dist.grad_log_std_rows(means, &ws.actions, &mut ws.grad_log_std_rows);
        let entropy_each = dist.entropy();

        ws.grad_mean.resize(batch_size, action_dim);
        ws.grad_log_std.clear();
        ws.grad_log_std.resize(action_dim, 0.0);
        let mut policy_loss = 0.0;
        let mut entropy_total = 0.0;
        let mut approx_kl = 0.0;
        let mut clipped = 0usize;
        let eps = self.config.clip_epsilon;

        for (i, &idx) in batch.iter().enumerate() {
            let sample = &samples[idx];
            let new_log_prob = ws.new_log_probs[i];
            let ratio = (new_log_prob - sample.old_log_prob).exp();
            let advantage = sample.advantage;
            let surr1 = ratio * advantage;
            let clipped_ratio = ratio.clamp(1.0 - eps, 1.0 + eps);
            let surr2 = clipped_ratio * advantage;
            policy_loss += -surr1.min(surr2) * inv_n;
            entropy_total += entropy_each * inv_n;
            approx_kl += (sample.old_log_prob - new_log_prob) * inv_n;
            if (ratio - clipped_ratio).abs() > 1e-12 {
                clipped += 1;
            }

            // d(-min(surr1, surr2))/d(log pi): -A * ratio when the unclipped
            // branch is active, 0 otherwise (the clipped branch is constant in
            // the parameters).
            let dloss_dlogp = if surr1 <= surr2 {
                -advantage * ratio
            } else {
                0.0
            } * inv_n;
            if dloss_dlogp != 0.0 {
                for j in 0..action_dim {
                    ws.grad_mean[(i, j)] = dloss_dlogp * ws.grad_mean_rows[(i, j)];
                    ws.grad_log_std[j] += dloss_dlogp * ws.grad_log_std_rows[(i, j)];
                }
            } else {
                ws.grad_mean.row_mut(i).fill(0.0);
            }
            // Entropy bonus: loss -= entropy_coef * H, dH/dlog_std_j = 1.
            for g in ws.grad_log_std.iter_mut() {
                *g -= self.config.entropy_coef * inv_n;
            }
        }

        self.net
            .backward_ws(&ws.obs, &mut ws.net, &ws.grad_mean, &mut ws.grads)
            .expect("actor backward failed");
        ws.grads.clip_global_norm(self.config.max_grad_norm);
        self.optimizer.step(self.net, &ws.grads);
        self.log_std_optimizer.step(self.log_std, &ws.grad_log_std);
        for ls in self.log_std.iter_mut() {
            *ls = ls.max(self.config.min_log_std);
        }

        PpoUpdateStats {
            policy_loss,
            value_loss: 0.0,
            entropy: entropy_total,
            approx_kl,
            clip_fraction: clipped as f64 / batch_size as f64,
            gradient_steps: 1,
        }
    }
}

impl CriticHalf<'_> {
    /// One critic step over `samples[batch]`: the value loss, then the
    /// critic optimizer step. Returns the minibatch's value loss.
    ///
    /// Mirrors the critic half of [`PpoAgent::update_minibatch_reference`]
    /// operation for operation, so the two paths stay bit-identical.
    fn step(&mut self, samples: &[ProcessedSample], batch: &[usize]) -> f64 {
        let ws = &mut *self.ws;
        let batch_size = batch.len();
        let inv_n = 1.0 / batch_size as f64;

        ws.obs.resize(batch_size, self.config.obs_dim);
        for (r, &idx) in batch.iter().enumerate() {
            ws.obs.row_mut(r).copy_from_slice(&samples[idx].observation);
        }

        self.net
            .forward_train_ws(&ws.obs, &mut ws.net)
            .expect("critic forward failed");
        ws.grad_values.resize(batch_size, 1);
        let mut value_loss = 0.0;
        let values = ws.net.output();
        for (i, &idx) in batch.iter().enumerate() {
            let err = values[(i, 0)] - samples[idx].value_target;
            value_loss += err * err * inv_n;
            ws.grad_values[(i, 0)] = self.config.value_loss_coef * 2.0 * err * inv_n;
        }
        self.net
            .backward_ws(&ws.obs, &mut ws.net, &ws.grad_values, &mut ws.grads)
            .expect("critic backward failed");
        ws.grads.clip_global_norm(self.config.max_grad_norm);
        self.optimizer.step(self.net, &ws.grads);
        value_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Step;
    use crate::trainer::Trainer;

    /// A stateless continuous bandit: reward peaks when the action hits `target`.
    #[derive(Clone)]
    struct Bandit {
        target: f64,
        space: ActionSpace,
    }

    impl Environment for Bandit {
        fn observation_dim(&self) -> usize {
            2
        }
        fn action_space(&self) -> ActionSpace {
            self.space.clone()
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![1.0, 0.0]
        }
        fn step(&mut self, action: &[f64]) -> Step {
            let a = action[0];
            let reward = 1.0 - ((a - self.target) / 10.0).powi(2);
            Step {
                observation: vec![1.0, 0.0],
                reward,
                done: true,
            }
        }
    }

    #[test]
    fn agent_construction_and_shapes() {
        let cfg = PpoConfig::new(4, 1).with_seed(3);
        let agent = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
        assert_eq!(agent.log_std().len(), 1);
        assert!(agent.parameter_count() > 0);
        let v = agent.value(&[0.0; 4]);
        assert!(v.is_finite());
        let a = agent.act_deterministic(&[0.0; 4]);
        assert!(agent.action_space().contains(&a));
    }

    #[test]
    #[should_panic(expected = "action space dimension")]
    fn mismatched_action_space_panics() {
        let cfg = PpoConfig::new(4, 2);
        let _ = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
    }

    #[test]
    fn sampled_actions_are_in_bounds_and_reproducible() {
        let cfg = PpoConfig::new(3, 1).with_seed(11);
        let mut a1 = PpoAgent::new(cfg.clone(), ActionSpace::scalar(5.0, 50.0));
        let mut a2 = PpoAgent::new(cfg, ActionSpace::scalar(5.0, 50.0));
        for _ in 0..20 {
            let s1 = a1.act(&[0.1, 0.2, 0.3]);
            let s2 = a2.act(&[0.1, 0.2, 0.3]);
            assert_eq!(s1.env_action, s2.env_action);
            assert!(a1.action_space().contains(&s1.env_action));
            assert!(s1.log_prob.is_finite());
        }
    }

    #[test]
    fn act_batch_matches_per_sample_path() {
        let cfg = PpoConfig::new(3, 1).with_seed(21);
        let agent = PpoAgent::new(cfg, ActionSpace::scalar(5.0, 50.0));
        let observations: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 * 0.1, -0.3, 0.7]).collect();
        let obs_refs: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        let mut batch_rngs: Vec<StdRng> = (0..9).map(|i| StdRng::seed_from_u64(1000 + i)).collect();
        let mut single_rngs = batch_rngs.clone();
        let batch = agent.act_batch(&obs_refs, &mut batch_rngs);
        assert_eq!(batch.len(), 9);
        for (i, sample) in batch.iter().enumerate() {
            let single = agent.act_with_rng(&observations[i], &mut single_rngs[i]);
            assert_eq!(sample.raw_action, single.raw_action, "row {i} raw action");
            assert_eq!(sample.env_action, single.env_action, "row {i} env action");
            assert!((sample.log_prob - single.log_prob).abs() <= 1e-12);
            assert!((sample.value - single.value).abs() <= 1e-12);
        }
        // The consumed noise must also match, so subsequent draws agree.
        assert_eq!(batch_rngs, single_rngs);
    }

    #[test]
    fn values_batch_matches_scalar_value() {
        let cfg = PpoConfig::new(2, 1).with_seed(8);
        let agent = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
        let observations = [vec![0.2, -0.4], vec![1.5, 0.0], vec![-2.0, 2.0]];
        let refs: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        let batched = agent.values_batch(&refs);
        for (obs, v) in observations.iter().zip(batched.iter()) {
            assert!((agent.value(obs) - v).abs() <= 1e-12);
        }
        assert!(agent.values_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "frozen observation normalizer")]
    fn update_refuses_a_frozen_normalizer() {
        use crate::running_stat::RunningMeanStd;
        let cfg = PpoConfig::new(2, 1).with_seed(31);
        let mut agent = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
        let mut env = Bandit {
            target: 4.0,
            space: ActionSpace::scalar(0.0, 10.0),
        };
        let mut buffer = RolloutBuffer::new();
        agent.collect_episodes(&mut env, 4, 1, &mut buffer);
        let samples = buffer.process(0.95, 0.95, 0.0, true);
        let mut rms = RunningMeanStd::new(2);
        rms.update(&[0.0, 0.0]);
        rms.update(&[1.0, 1.0]);
        agent.set_obs_normalizer(Some(rms));
        let _ = agent.update(&samples);
    }

    #[test]
    fn normalized_batch_paths_agree_with_scalar_paths() {
        use crate::running_stat::RunningMeanStd;
        let cfg = PpoConfig::new(2, 1).with_seed(33);
        let mut agent = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
        let mut rms = RunningMeanStd::new(2);
        for i in 0..10 {
            rms.update(&[i as f64, -0.5 * i as f64]);
        }
        agent.set_obs_normalizer(Some(rms));
        let observations = [vec![0.2, -0.4], vec![1.5, 0.0], vec![-2.0, 2.0]];
        let refs: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        // values_batch applies the normalizer exactly like the scalar path.
        for (obs, v) in observations.iter().zip(agent.values_batch(&refs)) {
            assert_eq!(agent.value(obs).to_bits(), v.to_bits());
        }
        // act_batch (single normalization pass) matches act_with_rng per row.
        let mut batch_rngs: Vec<StdRng> = (0..3).map(|i| StdRng::seed_from_u64(50 + i)).collect();
        let mut single_rngs = batch_rngs.clone();
        let batch = agent.act_batch(&refs, &mut batch_rngs);
        for (i, sample) in batch.iter().enumerate() {
            let single = agent.act_with_rng(&observations[i], &mut single_rngs[i]);
            assert_eq!(sample.raw_action, single.raw_action);
            assert_eq!(sample.value.to_bits(), single.value.to_bits());
        }
    }

    #[test]
    fn update_on_empty_samples_is_a_noop() {
        let cfg = PpoConfig::new(2, 1);
        let mut agent = PpoAgent::new(cfg, ActionSpace::scalar(0.0, 1.0));
        let stats = agent.update(&[]);
        assert_eq!(stats.gradient_steps, 0);
    }

    #[test]
    fn ppo_improves_on_continuous_bandit() {
        let env = Bandit {
            target: 7.0,
            space: ActionSpace::scalar(0.0, 10.0),
        };
        let mut cfg = PpoConfig::new(2, 1).with_seed(7);
        cfg.actor_lr = 3e-3;
        cfg.critic_lr = 3e-3;
        cfg.minibatch_size = 32;
        cfg.update_epochs = 5;
        cfg.entropy_coef = 0.0;
        let mut agent = PpoAgent::new(cfg, env.action_space());

        // Baseline performance before training.
        let before: f64 = {
            let a = agent.act_deterministic(&[1.0, 0.0]);
            1.0 - ((a[0] - 7.0) / 10.0).powi(2)
        };
        let history = Trainer::for_env(env)
            .episodes(60 * 16)
            .collectors(16)
            .max_steps(1)
            .run(&mut agent)
            .unwrap()
            .episode_returns;
        let after: f64 = {
            let a = agent.act_deterministic(&[1.0, 0.0]);
            1.0 - ((a[0] - 7.0) / 10.0).powi(2)
        };
        assert!(
            after > before || after > 0.995,
            "PPO did not improve: before {before}, after {after}, history tail {:?}",
            &history[history.len().saturating_sub(16)..]
        );
        // The policy mean should have moved towards the target.
        let final_action = agent.act_deterministic(&[1.0, 0.0])[0];
        assert!(
            (final_action - 7.0).abs() < 2.0,
            "final deterministic action {final_action} too far from target"
        );
    }

    #[test]
    fn fused_update_is_bit_identical_to_reference_path() {
        let mut env = Bandit {
            target: 6.0,
            space: ActionSpace::scalar(0.0, 10.0),
        };
        let cfg = PpoConfig::new(2, 1).with_seed(17);
        let mut fused = PpoAgent::new(cfg.clone(), env.action_space());
        let mut reference = PpoAgent::new(cfg, env.action_space());
        let mut buffer = RolloutBuffer::new();
        fused.collect_episodes(&mut env, 50, 1, &mut buffer);
        // Keep both agents' internal RNG streams aligned.
        let mut scratch = RolloutBuffer::new();
        reference.collect_episodes(&mut env, 50, 1, &mut scratch);
        let samples = buffer.process(0.95, 0.95, 0.0, true);
        for round in 0..3 {
            let sf = fused.update(&samples);
            let sr = reference.update_reference(&samples);
            assert_eq!(sf, sr, "stats diverged at round {round}");
            assert_eq!(
                fused.actor(),
                reference.actor(),
                "actor diverged at round {round}"
            );
            assert_eq!(
                fused.critic(),
                reference.critic(),
                "critic diverged at round {round}"
            );
            assert_eq!(
                fused.log_std(),
                reference.log_std(),
                "log_std diverged at round {round}"
            );
        }
        assert_eq!(fused, reference);
    }

    #[test]
    #[should_panic(expected = "does not match destination slice length")]
    fn update_reraises_a_panic_from_the_actor_half() {
        let mut env = Bandit {
            target: 3.0,
            space: ActionSpace::scalar(0.0, 10.0),
        };
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1).with_seed(41), env.action_space());
        let mut buffer = RolloutBuffer::new();
        agent.collect_episodes(&mut env, 30, 1, &mut buffer);
        let mut samples = buffer.process(0.95, 0.95, 0.0, true);
        // Only the actor half reads actions: the critic half runs to the end
        // on its thread, and the caller must still see the actor's panic.
        samples[25].action.push(0.0);
        let _ = agent.update(&samples);
    }

    /// `check()` rejects every value in `bad` written by `set`, naming `field`.
    fn assert_check_rejects(field: &str, set: fn(&mut PpoConfig, f64), bad: &[f64]) {
        for &value in bad {
            let mut cfg = PpoConfig::new(2, 1);
            set(&mut cfg, value);
            match cfg.check() {
                Err(msg) => assert!(msg.contains(field), "{field} = {value}: got {msg:?}"),
                Ok(()) => panic!("{field} = {value} passed check()"),
            }
        }
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn check_requires_a_positive_max_grad_norm() {
        let bad = [-0.5, 0.0, f64::NAN, f64::NEG_INFINITY];
        assert_check_rejects("max_grad_norm", |c, v| c.max_grad_norm = v, &bad);
        let mut cfg = PpoConfig::new(2, 1);
        cfg.max_grad_norm = f64::INFINITY;
        assert_eq!(cfg.check(), Ok(()), "+inf turns clipping off");
    }

    #[test]
    fn check_requires_a_finite_value_loss_coef() {
        assert_check_rejects("value_loss_coef", |c, v| c.value_loss_coef = v, &NON_FINITE);
    }

    #[test]
    fn check_requires_a_finite_entropy_coef() {
        assert_check_rejects("entropy_coef", |c, v| c.entropy_coef = v, &NON_FINITE);
    }

    #[test]
    fn check_requires_a_finite_initial_log_std() {
        assert_check_rejects("initial_log_std", |c, v| c.initial_log_std = v, &NON_FINITE);
    }

    #[test]
    fn check_requires_a_finite_min_log_std() {
        assert_check_rejects("min_log_std", |c, v| c.min_log_std = v, &NON_FINITE);
    }

    #[test]
    fn update_stats_are_finite() {
        let mut env = Bandit {
            target: 2.0,
            space: ActionSpace::scalar(0.0, 10.0),
        };
        let cfg = PpoConfig::new(2, 1).with_seed(13);
        let mut agent = PpoAgent::new(cfg, env.action_space());
        let mut buffer = RolloutBuffer::new();
        agent.collect_episodes(&mut env, 8, 1, &mut buffer);
        let samples = buffer.process(0.95, 0.95, 0.0, true);
        let stats = agent.update(&samples);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy.is_finite());
        assert!(stats.clip_fraction >= 0.0 && stats.clip_fraction <= 1.0);
        assert!(stats.gradient_steps > 0);
    }
}
