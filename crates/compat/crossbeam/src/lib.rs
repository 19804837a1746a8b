//! Offline compatibility subset of `crossbeam`.
//!
//! Only [`channel::unbounded`] and the `Sender`/`Receiver` pair are
//! needed by the workspace (the explore swarm's and the sweep's result
//! channels); they are thin re-exports of `std::sync::mpsc`, which has
//! the same unbounded MPSC semantics for this usage (single consumer,
//! cloneable producers, disconnect-aware send/recv).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// MPSC channels with the crossbeam-channel surface the workspace uses.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, Sender};
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn clone_producers_and_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(7).unwrap())
            .join()
            .unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
        drop(tx);
        assert!(rx.recv().is_err(), "all senders dropped ⇒ recv errors");
    }
}
