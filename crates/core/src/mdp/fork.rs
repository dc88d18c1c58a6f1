//! The fork-state MDP: the exact decision process a withholding attacker
//! faces in [`crate::adversary::ForkMachine`], truncated at a depth
//! parameter so value iteration is finite.
//!
//! **States.** A *decision state* is the fork state the machine hands a
//! [`Strategy`] — `(private lead a, public length h, published flag, event)`
//! with `a, h ≤ depth` — reached immediately after a block discovery.
//! **Actions** are the three [`ForkAction`]s, offered in the fixed order
//! extend-private / publish / adopt (the deterministic tie-break order).
//! What an action settles is [`ForkAction::resolve`]'s answer, the rule
//! the machine applies, so the table and the drivers cannot drift apart.
//! **Events** follow the model-level driver: the attacker finds the next
//! block with probability α; otherwise an honest block lands on the
//! attacker's published tip with probability γ during an equal-length race
//! (settling the race without a decision) or extends the public branch.
//!
//! **Truncation closure.** At the boundary the process is *forced* rather
//! than cut: a self block that would push the lead past `depth`
//! auto-publishes (settling the whole private branch — it is strictly
//! longer), and an honest block past `depth` auto-adopts, both through
//! `resolve`. Every policy
//! therefore keeps settling blocks, which makes the chain unichain with a
//! strictly positive total-settled gain — exactly what the ratio objective
//! in [`super::solver::solve_ratio`] needs. [`OptimalWithholding`]'s
//! out-of-table fallback implements the same closure, so the Monte-Carlo
//! driver realizes precisely this truncated chain.
//!
//! [`OptimalWithholding`]: super::OptimalWithholding

use super::solver::{solve_ratio, Mdp, MdpBuilder, Solution, Transition, ValueIteration};
use crate::adversary::{ForkAction, ForkEvent, ForkState, Resolution, Strategy};

/// The three fork actions in listing (= tie-break) order.
pub const ACTIONS: [ForkAction; 3] = [
    ForkAction::ExtendPrivate,
    ForkAction::Publish,
    ForkAction::Adopt,
];

/// Position of `action` in [`ACTIONS`].
#[must_use]
pub fn action_position(action: ForkAction) -> u8 {
    match action {
        ForkAction::ExtendPrivate => 0,
        ForkAction::Publish => 1,
        ForkAction::Adopt => 2,
    }
}

/// Dense index of decision state `(a, h, published, event)` in the full
/// `(depth+1)² × 2 × 2` grid (including never-reached combinations, so
/// lookup is pure arithmetic). `event` is 0 for [`ForkEvent::SelfBlock`],
/// 1 for [`ForkEvent::PublicBlock`].
#[must_use]
pub fn full_index(a: u64, h: u64, published: bool, event: usize, depth: u32) -> usize {
    let side = depth as u64 + 1;
    debug_assert!(a < side && h < side && event < 2);
    (((a * side + h) * 2 + u64::from(published)) * 2) as usize + event
}

/// Number of slots in the full decision-state grid at `depth`.
#[must_use]
pub fn full_grid_len(depth: u32) -> usize {
    let side = depth as usize + 1;
    side * side * 4
}

fn event_code(event: ForkEvent) -> usize {
    match event {
        ForkEvent::SelfBlock => 0,
        ForkEvent::PublicBlock => 1,
    }
}

/// Value of a fixed policy on the fork MDP.
#[derive(Debug, Clone, Copy)]
pub struct PolicyValue {
    /// Relative revenue: attacker-settled over total-settled gain.
    pub revenue: f64,
    /// `[attacker-settled, total-settled]` blocks per discovery event.
    pub gains: [f64; 2],
    /// Whether both channel evaluations met the stopping rule.
    pub converged: bool,
}

/// The fork-state MDP at one `(α, γ, depth)` configuration.
#[derive(Debug)]
pub struct ForkMdp {
    alpha: f64,
    gamma: f64,
    depth: u32,
    mdp: Mdp,
    /// Full-grid slot → compact state index (`-1` for invalid slots).
    index: Vec<i32>,
    /// Compact state index → `(a, h, published, event)`.
    states: Vec<(u64, u64, bool, usize)>,
}

impl ForkMdp {
    /// Builds the truncated fork MDP.
    ///
    /// # Panics
    /// Panics unless `alpha ∈ (0, 1)`, `gamma ∈ [0, 1]` and `depth ≥ 2`.
    #[must_use]
    pub fn new(alpha: f64, gamma: f64, depth: u32) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "attacker share must be in (0, 1), got {alpha}"
        );
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0, 1], got {gamma}"
        );
        assert!(
            depth >= 2,
            "truncation depth must be at least 2, got {depth}"
        );

        // Enumerate valid decision states: a self event implies a ≥ 1, a
        // public event implies h ≥ 1.
        let mut index = vec![-1i32; full_grid_len(depth)];
        let mut states = Vec::new();
        for a in 0..=u64::from(depth) {
            for h in 0..=u64::from(depth) {
                for published in [false, true] {
                    for event in 0..2usize {
                        let valid = if event == 0 { a >= 1 } else { h >= 1 };
                        if valid {
                            index[full_index(a, h, published, event, depth)] = states.len() as i32;
                            states.push((a, h, published, event));
                        }
                    }
                }
            }
        }

        let mut builder = MdpBuilder::new(states.len());
        let this = ForkMdpCtx {
            alpha,
            gamma,
            depth,
            index: &index,
        };
        for (s, &(private, public, published, _event)) in states.iter().enumerate() {
            let state = ForkState {
                private,
                public,
                published,
            };
            for (pos, &action) in ACTIONS.iter().enumerate() {
                let (reward, stable) = ForkMdpCtx::apply(state, action);
                let arcs = this.discoveries(stable, reward);
                builder.add_action(s, pos as u8, &arcs);
            }
        }
        Self {
            alpha,
            gamma,
            depth,
            mdp: builder.build(),
            index,
            states,
        }
    }

    /// The attacker share the MDP was built for.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The tie-break parameter the MDP was built for.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The truncation depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The underlying generic MDP.
    #[must_use]
    pub fn mdp(&self) -> &Mdp {
        &self.mdp
    }

    /// Number of decision states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Compact index of the decision state a strategy would be consulted
    /// at, or `None` when the fork state lies outside the truncation.
    #[must_use]
    pub fn lookup(&self, state: ForkState, event: ForkEvent) -> Option<usize> {
        if state.private > u64::from(self.depth) || state.public > u64::from(self.depth) {
            return None;
        }
        let slot = full_index(
            state.private,
            state.public,
            state.published,
            event_code(event),
            self.depth,
        );
        let i = self.index[slot];
        (i >= 0).then_some(i as usize)
    }

    /// The policy a [`Strategy`] induces on the decision states, as
    /// per-state action positions — restricting the MDP to exactly the
    /// strategy's play.
    #[must_use]
    pub fn induced_policy<S: Strategy + ?Sized>(&self, strategy: &S) -> Vec<u8> {
        self.states
            .iter()
            .map(|&(a, h, published, event)| {
                let state = ForkState {
                    private: a,
                    public: h,
                    published,
                };
                let event = if event == 0 {
                    ForkEvent::SelfBlock
                } else {
                    ForkEvent::PublicBlock
                };
                action_position(strategy.decide(state, event))
            })
            .collect()
    }

    /// Evaluates a fixed policy's relative revenue (per-channel gains via
    /// relative value iteration).
    #[must_use]
    pub fn evaluate(&self, policy: &[u8]) -> PolicyValue {
        let vi = ValueIteration::default();
        let mut v = Vec::new();
        let att = vi.evaluate(&self.mdp, policy, [1.0, 0.0], &mut v);
        let mut v = Vec::new();
        let tot = vi.evaluate(&self.mdp, policy, [0.0, 1.0], &mut v);
        Self::value_of(&att, &tot)
    }

    fn value_of(att: &Solution, tot: &Solution) -> PolicyValue {
        // The truncation closure guarantees a positive settle rate; the
        // guard keeps a degenerate evaluation finite rather than NaN.
        let revenue = if tot.gain > 0.0 {
            att.gain / tot.gain
        } else {
            0.0
        };
        PolicyValue {
            revenue,
            gains: [att.gain, tot.gain],
            converged: att.converged && tot.converged,
        }
    }

    /// Solves for the revenue-optimal policy by Dinkelbach iteration,
    /// seeded at `seed_ratio` (seeding with a known policy's revenue
    /// guarantees the result is at least that revenue). Returns the
    /// policy (action positions), its value, and convergence metadata.
    #[must_use]
    pub fn optimize(&self, seed_ratio: f64) -> (Vec<u8>, PolicyValue, u32, bool) {
        let sol = solve_ratio(&self.mdp, &ValueIteration::default(), seed_ratio, 60);
        let value = PolicyValue {
            revenue: sol.ratio,
            gains: sol.gains,
            converged: sol.converged,
        };
        (sol.policy, value, sol.rounds, sol.converged)
    }

    /// Expands a compact per-state policy into the full dense grid
    /// (`255` marks invalid slots), the layout [`super::SolvedPolicy`]
    /// stores for arithmetic lookup.
    #[must_use]
    pub fn to_full_table(&self, policy: &[u8]) -> Vec<u8> {
        let mut table = vec![255u8; full_grid_len(self.depth)];
        for (s, &(a, h, published, event)) in self.states.iter().enumerate() {
            table[full_index(a, h, published, event, self.depth)] = policy[s];
        }
        table
    }
}

/// Borrowed context for transition construction.
struct ForkMdpCtx<'a> {
    alpha: f64,
    gamma: f64,
    depth: u32,
    index: &'a [i32],
}

impl ForkMdpCtx<'_> {
    fn compact(&self, a: u64, h: u64, published: bool, event: usize) -> usize {
        let i = self.index[full_index(a, h, published, event, self.depth)];
        debug_assert!(
            i >= 0,
            "invalid decision state ({a}, {h}, {published}, {event})"
        );
        i as usize
    }

    /// Applies an action to the post-event fork state by
    /// [`ForkAction::resolve`]. Returns the settled `[attacker, total]`
    /// reward (the public branch is all honest) and the resulting stable
    /// state.
    fn apply(s: ForkState, action: ForkAction) -> ([f64; 2], ForkState) {
        let empty = ForkState {
            private: 0,
            public: 0,
            published: false,
        };
        match action.resolve(s) {
            Resolution::Hold => ([0.0, 0.0], s),
            Resolution::Race => (
                [0.0, 0.0],
                ForkState {
                    published: true,
                    ..s
                },
            ),
            Resolution::Private => ([s.private as f64, s.private as f64], empty),
            Resolution::Public => ([0.0, s.public as f64], empty),
        }
    }

    /// Enumerates the block-discovery outcomes from a stable fork state,
    /// carrying `base` (the acting settle reward) on every arc. Forced
    /// boundary settles and the γ race resolution pass through the empty
    /// fork `(0, 0)` and on to its next decision state, so every arc ends
    /// at a decision state.
    fn discoveries(&self, s: ForkState, base: [f64; 2]) -> Vec<Transition> {
        let mut arcs = Vec::with_capacity(6);
        let alpha = self.alpha;
        let tie = s.published && s.private > 0 && s.private == s.public;
        let race = if tie { (1.0 - alpha) * self.gamma } else { 0.0 };
        // A forced settle: `action` on the state past the boundary.
        let forced = |past: ForkState, action| {
            let (reward, _) = Self::apply(past, action);
            [base[0] + reward[0], base[1] + reward[1]]
        };

        // Attacker finds the next block.
        let a2 = s.private + 1;
        if a2 > u64::from(self.depth) {
            // Forced publish: the private branch (a2 > h) settles whole.
            let reward = forced(ForkState { private: a2, ..s }, ForkAction::Publish);
            self.restart(alpha, reward, &mut arcs);
        } else {
            arcs.push(Transition {
                next: self.compact(a2, s.public, s.published, 0),
                prob: alpha,
                reward: base,
            });
        }

        // During an equal-length race: honest power on the attacker's tip
        // settles her branch plus the new honest block, no decision.
        if race > 0.0 {
            let won = s.private as f64;
            let reward = [base[0] + won, base[1] + won + 1.0];
            self.restart(race, reward, &mut arcs);
        }

        // An honest block extends the public branch.
        let public = (1.0 - alpha) - race;
        let h2 = s.public + 1;
        if h2 > u64::from(self.depth) {
            // Forced adopt: the public branch settles, private forfeits.
            let reward = forced(ForkState { public: h2, ..s }, ForkAction::Adopt);
            self.restart(public, reward, &mut arcs);
        } else {
            arcs.push(Transition {
                next: self.compact(s.private, h2, s.published, 1),
                prob: public,
                reward: base,
            });
        }
        arcs
    }

    /// Outcomes from the empty fork `(0, 0, unpublished)`: the next block
    /// is the attacker's (→ decide at `(1, 0)`) or honest (→ decide at
    /// `(0, 1)`), scaled by `prob` and carrying `reward`.
    fn restart(&self, prob: f64, reward: [f64; 2], arcs: &mut Vec<Transition>) {
        arcs.push(Transition {
            next: self.compact(1, 0, false, 0),
            prob: prob * self.alpha,
            reward,
        });
        arcs.push(Transition {
            next: self.compact(0, 1, false, 1),
            prob: prob * (1.0 - self.alpha),
            reward,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Honest, SelfishMining};
    use fairness_stats::dist::selfish_mining_relative_revenue;

    #[test]
    fn state_enumeration_round_trips() {
        let m = ForkMdp::new(0.3, 0.5, 6);
        for (a, h, p, e) in [(1, 0, false, 0), (3, 4, true, 1), (6, 6, true, 0)] {
            let state = ForkState {
                private: a,
                public: h,
                published: p,
            };
            let event = if e == 0 {
                ForkEvent::SelfBlock
            } else {
                ForkEvent::PublicBlock
            };
            let i = m.lookup(state, event).expect("valid state");
            assert_eq!(m.states[i], (a, h, p, e));
        }
        // Out-of-truncation and invalid states have no index.
        assert_eq!(
            m.lookup(
                ForkState {
                    private: 7,
                    public: 0,
                    published: false
                },
                ForkEvent::SelfBlock
            ),
            None
        );
        assert_eq!(
            m.lookup(
                ForkState {
                    private: 0,
                    public: 0,
                    published: false
                },
                ForkEvent::SelfBlock
            ),
            None,
            "a self event implies at least one private block"
        );
    }

    #[test]
    fn honest_policy_revenue_is_alpha() {
        // Honest play settles every block as it arrives: relative revenue
        // must equal α exactly (up to solver epsilon).
        for alpha in [0.1, 0.3, 0.45] {
            let m = ForkMdp::new(alpha, 0.0, 8);
            let value = m.evaluate(&m.induced_policy(&Honest));
            assert!(value.converged);
            assert!(
                (value.revenue - alpha).abs() < 1e-8,
                "α={alpha}: honest revenue {}",
                value.revenue
            );
            assert!(
                (value.gains[1] - 1.0).abs() < 1e-8,
                "honest settles every block"
            );
        }
    }

    #[test]
    fn eyal_sirer_policy_matches_closed_form_spot_check() {
        // Full-grid coverage lives in tests/mdp_properties.rs; this pins
        // one well-known point: α = 1/3, γ = 0 is the break-even point.
        let m = ForkMdp::new(1.0 / 3.0, 0.0, 32);
        let value = m.evaluate(&m.induced_policy(&SelfishMining::new(0.0)));
        let exact = selfish_mining_relative_revenue(1.0 / 3.0, 0.0);
        assert!(
            (value.revenue - exact).abs() < 1e-3,
            "mdp {} vs closed form {exact}",
            value.revenue
        );
    }

    #[test]
    fn optimize_beats_the_seeded_policy() {
        let m = ForkMdp::new(0.45, 0.0, 16);
        let es = m.evaluate(&m.induced_policy(&SelfishMining::new(0.0)));
        let (_, value, _, converged) = m.optimize(es.revenue);
        assert!(converged);
        assert!(
            value.revenue >= es.revenue - 1e-9,
            "optimal {} below Eyal–Sirer {}",
            value.revenue,
            es.revenue
        );
    }

    #[test]
    fn full_table_round_trips() {
        let m = ForkMdp::new(0.3, 0.5, 4);
        let policy = m.induced_policy(&SelfishMining::new(0.5));
        let table = m.to_full_table(&policy);
        for (s, &(a, h, p, e)) in m.states.iter().enumerate() {
            assert_eq!(table[full_index(a, h, p, e, 4)], policy[s]);
        }
        let valid = table.iter().filter(|&&x| x != 255).count();
        assert_eq!(valid, m.num_states());
    }
}
