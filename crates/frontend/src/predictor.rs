//! Branch direction predictors: the [`DirectionPredictor`] trait and the
//! bimodal and always-taken designs TAGE's tests measure it against (the
//! 2-bit counter is also TAGE's base component).

/// A conditional-branch direction predictor.
///
/// The simulator calls [`DirectionPredictor::predict`] at fetch and
/// [`DirectionPredictor::update`] when the true outcome is known. Global
/// history inside implementations is maintained with the true outcome
/// (first-order history repair, standard for trace-driven timing models).
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`.
    fn update(&mut self, pc: u64, taken: bool);
}

/// A saturating 2-bit counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counter2(u8);

impl Counter2 {
    pub(crate) fn new(value: u8) -> Self {
        Self(value.min(3))
    }
    pub(crate) fn taken(self) -> bool {
        self.0 >= 2
    }
    pub(crate) fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
    #[cfg(test)]
    pub(crate) fn is_weak(self) -> bool {
        self.0 == 1 || self.0 == 2
    }
}

/// Bimodal predictor: a table of 2-bit counters indexed by PC.
///
/// # Examples
///
/// ```
/// use orinoco_frontend::{Bimodal, DirectionPredictor};
///
/// let mut p = Bimodal::new(1024);
/// for _ in 0..4 {
///     p.update(0x40, true);
/// }
/// assert!(p.predict(0x40));
/// ```
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![Counter2::new(1); entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }
}

/// Static always-taken predictor (the weakest baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysTaken;

impl DirectionPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }
    fn update(&mut self, _pc: u64, _taken: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter2_saturates() {
        let mut c = Counter2::new(0);
        assert!(!c.taken());
        c.update(true);
        c.update(true);
        assert!(c.taken());
        c.update(true);
        c.update(true);
        assert!(c.taken());
        c.update(false);
        assert!(c.taken()); // 3 -> 2, still taken
        assert!(c.is_weak());
        c.update(false);
        c.update(false);
        assert!(!c.taken());
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(64);
        for _ in 0..8 {
            p.update(100, true);
            p.update(200, false);
        }
        assert!(p.predict(100));
        assert!(!p.predict(200));
    }

    #[test]
    fn bimodal_cannot_learn_alternating() {
        let mut p = Bimodal::new(64);
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..200 {
            let pred = p.predict(0x80);
            if i >= 50 && pred == outcome {
                correct += 1;
            }
            p.update(0x80, outcome);
            outcome = !outcome;
        }
        assert!(correct <= 80, "bimodal suspiciously good: {correct}");
    }

    #[test]
    fn always_taken_is_constant() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0));
        p.update(0, false);
        assert!(p.predict(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bimodal_bad_size_panics() {
        let _ = Bimodal::new(100);
    }
}
