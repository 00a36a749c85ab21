//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{bounded, Sender, Receiver}` backed by
//! [`std::sync::mpsc::sync_channel`]. The semantics the streaming executor
//! relies on hold: bounded capacity with blocking sends, cloneable
//! senders, receiver iteration that ends when all senders disconnect.

/// Multi-producer channels (std-backed).
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]: the channel is at
    /// capacity, or the receiving side has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is full; the value is handed back.
        Full(T),
        /// The receiver is gone; the value is handed back.
        Disconnected(T),
    }

    /// Cloneable producer handle of a bounded channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        tx: mpsc::SyncSender<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self {
                tx: self.tx.clone(),
                depth: Arc::clone(&self.depth),
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocking send; errors if the receiving side has hung up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // Count the slot before the (possibly blocking) send so a
            // full channel reads as `capacity` depth while we wait.
            self.depth.fetch_add(1, Ordering::Relaxed);
            self.tx.send(value).map_err(|mpsc::SendError(v)| {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                SendError(v)
            })
        }

        /// Non-blocking send; `Full` hands the value back without
        /// waiting, letting callers count backpressure stalls before
        /// falling back to a blocking [`Sender::send`].
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            // Count the slot before handing the value over: once the
            // inner send succeeds the receiver may drain it (and
            // decrement) immediately, so incrementing afterwards would
            // let the gauge transiently underflow.
            self.depth.fetch_add(1, Ordering::Relaxed);
            match self.tx.try_send(value) {
                Ok(()) => Ok(()),
                Err(mpsc::TrySendError::Full(v)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    Err(TrySendError::Full(v))
                }
                Err(mpsc::TrySendError::Disconnected(v)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    Err(TrySendError::Disconnected(v))
                }
            }
        }

        /// Best-effort number of values currently buffered in the
        /// channel (including sends still blocked on capacity).
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// True when no values are buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Consumer handle of a bounded channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> Receiver<T> {
        /// Blocking receive; `None`-like error once all senders are gone.
        pub fn recv(&self) -> Result<T, mpsc::RecvError> {
            let v = self.rx.recv()?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(v)
        }

        /// Non-blocking receive; errors when the channel is empty or
        /// every sender is gone.
        pub fn try_recv(&self) -> Result<T, mpsc::TryRecvError> {
            let v = self.rx.try_recv()?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(v)
        }

        /// Best-effort number of values currently buffered.
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// True when no values are buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator draining a receiver until all senders disconnect,
    /// keeping the shared depth gauge in sync on every item.
    #[derive(Debug)]
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            IntoIter { rx: self }
        }
    }

    /// Creates a bounded channel with the given capacity.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        let depth = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                tx,
                depth: Arc::clone(&depth),
            },
            Receiver { rx, depth },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fan_in_from_multiple_producers() {
            let (tx, rx) = bounded::<u32>(4);
            let mut handles = Vec::new();
            for p in 0..3u32 {
                let tx = tx.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..10 {
                        tx.send(p * 100 + i).expect("receiver alive");
                    }
                }));
            }
            drop(tx);
            let got: Vec<u32> = rx.into_iter().collect();
            for h in handles {
                h.join().expect("producer panicked");
            }
            assert_eq!(got.len(), 30);
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = bounded::<u8>(1);
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }

        #[test]
        fn try_send_reports_full_and_depth_tracks_occupancy() {
            let (tx, rx) = bounded::<u8>(2);
            assert!(tx.is_empty());
            tx.try_send(1).expect("slot free");
            tx.try_send(2).expect("slot free");
            assert_eq!(tx.len(), 2);
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.recv().expect("value buffered"), 1);
            assert_eq!(rx.len(), 1);
            tx.try_send(3).expect("slot freed by recv");
            drop(tx);
            let rest: Vec<u8> = rx.into_iter().collect();
            assert_eq!(rest, vec![2, 3]);
        }

        #[test]
        fn try_send_reports_disconnected() {
            let (tx, rx) = bounded::<u8>(1);
            drop(rx);
            assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
        }
    }
}
