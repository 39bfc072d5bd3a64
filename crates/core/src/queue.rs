//! Bounded message queues with threshold watermarks (§2.1, §2.2.4).

use std::collections::VecDeque;

use crate::message::Message;

/// A bounded FIFO of messages with a programmable *almost-full* threshold.
///
/// The input and output queues of Figure 1 are both instances of this type.
/// Capacity is fixed at construction (the paper's example sizing is 16
/// messages per queue, ≈ 3/4 KiB of on-chip memory); the threshold comes
/// from the CONTROL register and may change at any time. The buffer is
/// allocated, at exactly that capacity, by the first push, so a machine's
/// queues that never carry traffic cost no memory.
///
/// # Example
///
/// ```
/// use tcni_core::{Message, MsgQueue};
///
/// let mut q = MsgQueue::new(2);
/// assert!(q.push(Message::default()).is_ok());
/// assert!(q.push(Message::default()).is_ok());
/// assert!(q.push(Message::default()).is_err()); // full: rejected, not dropped
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsgQueue {
    items: VecDeque<Message>,
    capacity: usize,
}

impl MsgQueue {
    /// Creates a queue holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a queue that can hold nothing would
    /// deadlock the flow-control protocol.
    pub fn new(capacity: usize) -> MsgQueue {
        assert!(capacity > 0, "queue capacity must be non-zero");
        MsgQueue {
            items: VecDeque::new(),
            capacity,
        }
    }

    /// The fixed capacity in messages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Whether occupancy has reached `threshold` (the `iafull`/`oafull`
    /// condition of §2.2.4). A threshold of zero disables the check.
    pub fn over_threshold(&self, threshold: u32) -> bool {
        threshold != 0 && self.items.len() >= threshold as usize
    }

    /// Appends a message; on a full queue the message is handed back
    /// unmodified so the caller can apply backpressure.
    ///
    /// # Errors
    ///
    /// Returns `Err(msg)` when full.
    pub fn push(&mut self, msg: Message) -> Result<(), Message> {
        if self.is_full() {
            return Err(msg);
        }
        if self.items.len() == self.items.capacity() {
            // Unallocated (or cloned short): size the buffer to the queue's
            // capacity once, never past it.
            self.items.reserve_exact(self.capacity - self.items.len());
        }
        self.items.push_back(msg);
        Ok(())
    }

    /// Removes and returns the least recently queued message.
    pub fn pop(&mut self) -> Option<Message> {
        self.items.pop_front()
    }

    /// The least recently queued message, without removing it.
    pub fn peek(&self) -> Option<&Message> {
        self.items.front()
    }

    /// Removes all messages.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates oldest-first without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_isa::MsgType;

    fn msg(n: u32) -> Message {
        Message::new([n, 0, 0, 0, 0], MsgType::default())
    }

    #[test]
    fn fifo_order() {
        let mut q = MsgQueue::new(4);
        for i in 0..4 {
            q.push(msg(i)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop().unwrap().words[0], i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn rejects_when_full_without_loss() {
        let mut q = MsgQueue::new(1);
        q.push(msg(1)).unwrap();
        let rejected = q.push(msg(2)).unwrap_err();
        assert_eq!(rejected.words[0], 2);
        assert_eq!(q.peek().unwrap().words[0], 1);
    }

    #[test]
    fn threshold_semantics() {
        let mut q = MsgQueue::new(16);
        assert!(!q.over_threshold(0)); // disabled
        assert!(!q.over_threshold(1));
        q.push(msg(0)).unwrap();
        assert!(q.over_threshold(1));
        assert!(!q.over_threshold(2));
        q.push(msg(1)).unwrap();
        assert!(q.over_threshold(2));
        assert!(!q.over_threshold(0)); // still disabled at any occupancy
    }

    #[test]
    fn the_buffer_is_allocated_by_the_first_push_at_capacity() {
        let mut q = MsgQueue::new(16);
        assert_eq!(q.items.capacity(), 0);
        q.push(msg(0)).unwrap();
        assert_eq!(q.items.capacity(), q.capacity());
        for i in 1..16 {
            q.push(msg(i)).unwrap();
        }
        assert!(q.push(msg(16)).is_err());
        assert_eq!(q.items.capacity(), q.capacity());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = MsgQueue::new(0);
    }
}
