//! A bounded MPMC job queue with explicit load shedding.
//!
//! The daemon's backpressure contract: submission never blocks. Either the
//! queue has room and the job is accepted, or the caller gets
//! [`PushError::Full`] back immediately and maps it to `429`. Workers
//! block on [`BoundedQueue::pop`]; closing the queue wakes them all, and
//! they drain whatever is still queued before exiting — which is exactly
//! the drain protocol's "finish queued work" phase.

use diffaudit_obs as obs;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the load (`429`).
    Full,
    /// The queue is closed — the daemon is draining (`503`).
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => f.write_str("queue full"),
            PushError::Closed => f.write_str("queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO shared between the accept loop (producer) and the
/// job-runner workers (consumers).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
    depth_gauge: Option<&'static str>,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            depth_gauge: None,
        }
    }

    /// Publish the queue depth as global gauge `name` on every push/pop.
    /// The queue is the gauge's single authoritative writer (it uses the
    /// `set` form), so the reading is exact, never a drifting delta.
    pub fn with_depth_gauge(mut self, name: &'static str) -> BoundedQueue<T> {
        self.depth_gauge = Some(name);
        self
    }

    fn publish_depth(&self, depth: usize) {
        if let Some(name) = self.depth_gauge {
            obs::gauge_set(name, depth as i64);
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking push. Returns the queue depth after the push, or the
    /// shedding reason.
    pub fn try_push(&self, item: T) -> Result<usize, PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.publish_depth(depth);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocking pop. Returns `None` once the queue is closed *and* empty —
    /// the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                let depth = state.items.len();
                drop(state);
                self.publish_depth(depth);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = match self.available.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Close the queue: further pushes fail with [`PushError::Closed`],
    /// blocked poppers wake, and remaining items stay poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_load_at_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(2));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push('a').expect("room");
        q.try_push('b').expect("room");
        q.close();
        assert_eq!(q.try_push('c'), Err(PushError::Closed));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn depth_gauge_tracks_push_and_pop() {
        // Name unique to this test: the global recorder is shared across
        // the test binary.
        let q = BoundedQueue::new(2).with_depth_gauge("serve.queue.test.depth");
        let gauge = |name| {
            obs::snapshot()
                .gauges
                .get(name)
                .map_or(-1, obs::Gauge::value)
        };
        q.try_push('a').expect("room");
        assert_eq!(gauge("serve.queue.test.depth"), 1);
        q.try_push('b').expect("room");
        assert_eq!(gauge("serve.queue.test.depth"), 2);
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(gauge("serve.queue.test.depth"), 1);
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(gauge("serve.queue.test.depth"), 0);
        let snap = obs::snapshot();
        let watermark = snap.gauges["serve.queue.test.depth"];
        assert_eq!(watermark.max(), Some(2));
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(42u32).expect("room");
        assert_eq!(popper.join().expect("join"), Some(42));
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().expect("join"), None);
    }
}
