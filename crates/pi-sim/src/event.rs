//! Virtual time and the deterministic event kernel.
//!
//! [`Cycles`] is the simulators' clock. [`Kernel`] drives a set of
//! [`Component`]s under it: each step delivers the tick of the component
//! due first, ties going to the earliest registered, so a run is a pure
//! function of its components.

/// Virtual time in cycles.
pub type Cycles = u64;

/// A simulation actor driven by the deterministic event [`Kernel`].
///
/// A component is anything with a notion of "the next virtual time I
/// have work to do": a simulated CPU core mid-slice, an OS timer with a
/// pending quantum deadline, a sleeping process with a wake time. The
/// kernel repeatedly asks every component for its next tick, advances
/// the shared clock to the earliest one, and delivers exactly one
/// `tick` — so any cross-component interleaving (a timer interrupt
/// landing between two core micro-steps, say) is a totally ordered,
/// replayable sequence of events rather than a race.
pub trait Component {
    /// The next virtual time at which this component has work, or
    /// `None` while it is idle. May be re-polled arbitrarily often and
    /// must be side-effect free; returning a time in the past is
    /// clamped to the kernel's current clock.
    fn next_tick(&self) -> Option<Cycles>;
    /// Performs the component's due work at virtual time `now`.
    fn tick(&mut self, now: Cycles);
}

/// A deterministic event kernel over a set of [`Component`]s.
///
/// Each step selects the component with the minimum `(next_tick,
/// registration index)` — ties on virtual time always resolve in
/// registration order, so a run is a pure function of the registered
/// components and their initial state. This is the unifying execution
/// substrate named in the roadmap: pi-sim cores, the OS timer, and
/// OS-managed processes all advance under one clock, which is what
/// lets preemption interleave with the cache/bus model without
/// introducing any host nondeterminism.
#[derive(Default)]
pub struct Kernel {
    components: Vec<Box<dyn Component>>,
    now: Cycles,
    ticks: u64,
}

impl Kernel {
    /// An empty kernel at virtual time zero.
    pub fn new() -> Self {
        Kernel {
            components: Vec::new(),
            now: 0,
            ticks: 0,
        }
    }

    /// Registers a component; the returned index is its tie-break rank
    /// (earlier registrations win ties on virtual time).
    pub fn register(&mut self, component: Box<dyn Component>) -> usize {
        self.components.push(component);
        self.components.len() - 1
    }

    /// Current virtual time: the time of the most recent tick.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total ticks delivered so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Delivers the next due tick, returning `(time, component index)`,
    /// or `None` when every component is idle. The clock never moves
    /// backwards: a component reporting a next tick in the past (work
    /// made due by another component's tick at the current time) runs
    /// at the current clock.
    pub fn step(&mut self) -> Option<(Cycles, usize)> {
        let mut best: Option<(Cycles, usize)> = None;
        for (i, c) in self.components.iter().enumerate() {
            if let Some(t) = c.next_tick() {
                let t = t.max(self.now);
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        let (t, i) = best?;
        self.now = t;
        self.ticks += 1;
        self.components[i].tick(t);
        Some((t, i))
    }

    /// Runs until every component is idle; returns the tick count.
    pub fn run(&mut self) -> u64 {
        let mut n = 0;
        while self.step().is_some() {
            n += 1;
        }
        n
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("components", &self.components.len())
            .field("now", &self.now)
            .field("ticks", &self.ticks)
            .finish()
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Fires every `period` cycles until `remaining` hits zero,
    /// appending `(time, id)` to a shared log.
    struct Ticker {
        id: usize,
        period: Cycles,
        next: Cycles,
        remaining: u32,
        log: Rc<RefCell<Vec<(Cycles, usize)>>>,
    }

    impl Component for Ticker {
        fn next_tick(&self) -> Option<Cycles> {
            (self.remaining > 0).then_some(self.next)
        }
        fn tick(&mut self, now: Cycles) {
            assert_eq!(now, self.next);
            self.log.borrow_mut().push((now, self.id));
            self.remaining -= 1;
            self.next += self.period;
        }
    }

    fn run_tickers(specs: &[(Cycles, u32)]) -> Vec<(Cycles, usize)> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut kernel = Kernel::new();
        for (id, &(period, remaining)) in specs.iter().enumerate() {
            kernel.register(Box::new(Ticker {
                id,
                period,
                next: period,
                remaining,
                log: Rc::clone(&log),
            }));
        }
        kernel.run();
        drop(kernel);
        Rc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn kernel_interleaves_components_in_time_order() {
        let log = run_tickers(&[(10, 3), (15, 2)]);
        assert_eq!(log, vec![(10, 0), (15, 1), (20, 0), (30, 0), (30, 1)]);
    }

    #[test]
    fn kernel_breaks_time_ties_by_registration_order() {
        // Three components all due at the same times: delivery order at
        // each instant must be registration order, every round.
        let log = run_tickers(&[(7, 4), (7, 4), (7, 4)]);
        let want: Vec<(Cycles, usize)> = (1..=4)
            .flat_map(|r| (0..3).map(move |id| (7 * r, id)))
            .collect();
        assert_eq!(log, want);
    }

    #[test]
    fn kernel_replays_bit_identically() {
        let a = run_tickers(&[(3, 50), (5, 30), (11, 9), (3, 1)]);
        let b = run_tickers(&[(3, 50), (5, 30), (11, 9), (3, 1)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 90);
    }

    #[test]
    fn kernel_run_returns_tick_count_and_clock_sticks_at_last_tick() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut kernel = Kernel::new();
        kernel.register(Box::new(Ticker {
            id: 0,
            period: 40,
            next: 40,
            remaining: 3,
            log: Rc::clone(&log),
        }));
        assert_eq!(kernel.run(), 3);
        assert_eq!(kernel.now(), 120);
        assert_eq!(kernel.ticks(), 3);
        assert_eq!(kernel.step(), None);
    }
}
