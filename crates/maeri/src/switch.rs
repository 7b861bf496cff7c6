//! The three switch types of Figure 3: multiplier switches, adder
//! switches, and simple switches.

use serde::{Deserialize, Serialize};

/// Static configuration of one adder switch for a layer run
/// (Section 3.2.3: "Each AS is statically configured to act as either
/// 2:1 ADD, 3:1 ADD, 1:1 ADD plus 1:1 forward, or 2:2 forward").
///
/// `Idle` covers switches outside any virtual neuron, and `CompareN`
/// variants are the POOL-layer comparator configurations (Section 4.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AdderMode {
    /// Not part of any virtual neuron.
    #[default]
    Idle,
    /// Add the two child inputs, send the sum up.
    AddTwo,
    /// Add both child inputs plus the lateral (forwarding link) input.
    AddThree,
    /// Add one child with the lateral input while independently
    /// forwarding the other child up or sideways.
    AddOneForwardOne,
    /// Forward both child inputs without adding (one up, one lateral —
    /// or both up where the chubby link is wide enough).
    ForwardTwo,
    /// Forward a single child input up unchanged.
    ForwardOne,
    /// POOL: compare the two child inputs, send the max up.
    CompareTwo,
    /// POOL: compare both children and the lateral input.
    CompareThree,
}

impl AdderMode {
    /// Number of addends this mode consumes (0 for pure forwards).
    #[must_use]
    pub fn addend_count(&self) -> usize {
        match self {
            AdderMode::Idle | AdderMode::ForwardOne | AdderMode::ForwardTwo => 0,
            AdderMode::AddTwo | AdderMode::AddOneForwardOne | AdderMode::CompareTwo => 2,
            AdderMode::AddThree | AdderMode::CompareThree => 3,
        }
    }

    /// Whether the arithmetic unit (adder or comparator) is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.addend_count() > 0
    }

    /// Whether the mode is a POOL comparator configuration.
    #[must_use]
    pub fn is_comparator(&self) -> bool {
        matches!(self, AdderMode::CompareTwo | AdderMode::CompareThree)
    }
}

/// Runtime state of one multiplier switch: the stationary weight and a
/// small FIFO of input activations (Section 3.1.2: flow control is end
/// to end between FIFOs at the MSes and the prefetch buffer).
///
/// # Example
///
/// ```
/// use maeri::switch::MultSwitch;
///
/// let mut ms = MultSwitch::new(4);
/// ms.load_weight(0.5);
/// ms.push_input(2.0).unwrap();
/// assert_eq!(ms.fire(), Some(1.0));
/// assert_eq!(ms.fire(), None); // FIFO empty
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultSwitch {
    weight: Option<f32>,
    fifo: std::collections::VecDeque<f32>,
    capacity: usize,
}

impl MultSwitch {
    /// Creates a multiplier switch with `fifo_capacity` input slots.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_capacity` is zero.
    #[must_use]
    pub fn new(fifo_capacity: usize) -> Self {
        assert!(fifo_capacity > 0, "fifo capacity must be positive");
        MultSwitch {
            weight: None,
            fifo: std::collections::VecDeque::with_capacity(fifo_capacity),
            capacity: fifo_capacity,
        }
    }

    /// Installs the stationary weight (weights stay for a whole layer).
    pub fn load_weight(&mut self, weight: f32) {
        self.weight = Some(weight);
    }

    /// Enqueues an input activation.
    ///
    /// # Errors
    ///
    /// Returns the rejected value when the FIFO is full (the end-to-end
    /// flow control would have back-pressured the distribution tree).
    pub fn push_input(&mut self, activation: f32) -> std::result::Result<(), f32> {
        if self.fifo.len() >= self.capacity {
            return Err(activation);
        }
        self.fifo.push_back(activation);
        Ok(())
    }

    /// Number of queued input activations.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Performs one multiply: pops the oldest input and returns
    /// `weight * input`, or `None` when no weight or no input is ready.
    pub fn fire(&mut self) -> Option<f32> {
        let weight = self.weight?;
        let input = self.fifo.pop_front()?;
        Some(weight * input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_mode_addend_counts() {
        assert_eq!(AdderMode::Idle.addend_count(), 0);
        assert_eq!(AdderMode::AddTwo.addend_count(), 2);
        assert_eq!(AdderMode::AddThree.addend_count(), 3);
        assert_eq!(AdderMode::AddOneForwardOne.addend_count(), 2);
        assert_eq!(AdderMode::ForwardTwo.addend_count(), 0);
        assert!(AdderMode::AddTwo.is_active());
        assert!(!AdderMode::ForwardOne.is_active());
        assert!(AdderMode::CompareThree.is_comparator());
        assert!(!AdderMode::AddThree.is_comparator());
        assert_eq!(AdderMode::default(), AdderMode::Idle);
    }

    #[test]
    fn mult_switch_fires_fifo_order() {
        let mut ms = MultSwitch::new(2);
        ms.load_weight(3.0);
        ms.push_input(1.0).unwrap();
        ms.push_input(2.0).unwrap();
        assert_eq!(ms.fire(), Some(3.0));
        assert_eq!(ms.fire(), Some(6.0));
        assert_eq!(ms.fire(), None);
    }

    #[test]
    fn fifo_backpressure() {
        let mut ms = MultSwitch::new(1);
        ms.push_input(1.0).unwrap();
        assert_eq!(ms.push_input(2.0), Err(2.0));
        assert_eq!(ms.occupancy(), 1);
    }

    #[test]
    fn fire_requires_weight() {
        let mut ms = MultSwitch::new(2);
        ms.push_input(1.0).unwrap();
        assert_eq!(ms.fire(), None);
        ms.load_weight(2.0);
        assert_eq!(ms.fire(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "fifo capacity")]
    fn zero_capacity_panics() {
        let _ = MultSwitch::new(0);
    }
}
