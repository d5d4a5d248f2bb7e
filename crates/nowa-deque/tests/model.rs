//! Property-based model tests: single-threaded op sequences against a
//! reference `VecDeque`, for every deque algorithm.

use std::collections::VecDeque;

use nowa_deque::{Cl, DequeAlgo, SplitConfig, SplitDeque, Steal, StealerOps, The, WorkerOps};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Push(usize),
    Pop,
    Steal,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => any::<usize>().prop_map(Op::Push),
            2 => Just(Op::Pop),
            2 => Just(Op::Steal),
        ],
        0..200,
    )
}

/// Replays `ops` against a deque and a VecDeque model. Since all calls
/// happen on one thread, the owner must see the model's LIFO end and a
/// thief its FIFO end exactly (bounded algorithms are given enough capacity
/// to never refuse). `public_len` is the part thieves can reach: a steal
/// may come back empty only when that is 0, and a push must leave it
/// non-empty. For a plain deque it is simply `len`; for the split layer
/// (§6g) it is the wrapped deque, and both conditions are the layer's
/// contract. The final drain shows nothing was lost or duplicated.
fn check_model<W: WorkerOps<usize>, S: StealerOps<usize>>(
    (worker, stealer): (W, S),
    public_len: impl Fn(&W) -> usize,
    ops: &[Op],
) {
    let mut model: VecDeque<usize> = VecDeque::new();
    for op in ops {
        match op {
            Op::Push(v) => {
                worker.push(*v).unwrap();
                model.push_back(*v);
                assert!(public_len(&worker) >= 1, "push left nothing stealable");
            }
            Op::Pop => {
                assert_eq!(worker.pop(), model.pop_back());
            }
            Op::Steal => match stealer.steal() {
                Steal::Success(v) => assert_eq!(Some(v), model.pop_front()),
                Steal::Empty => assert_eq!(public_len(&worker), 0),
                Steal::Retry => panic!("uncontended steal must not retry"),
            },
        }
        assert_eq!(worker.len(), model.len());
    }
    let drained: Vec<usize> = core::iter::from_fn(|| worker.pop()).collect();
    assert!(drained.into_iter().eq(model.into_iter().rev()));
}

fn check_plain<A: DequeAlgo>(ops: &[Op]) {
    check_model(A::create::<usize>(512), |w| w.len(), ops);
}

/// A ring of 4 makes overflow promotion part of the walk.
fn check_split<A: DequeAlgo>(ops: &[Op]) {
    let (worker, stealer) = A::create::<usize>(512);
    let split = SplitDeque::wrap(worker, stealer, SplitConfig::default(), 4);
    check_model(split, |w| w.public_len(), ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cl_matches_model(ops in ops()) {
        check_plain::<Cl>(&ops);
    }

    #[test]
    fn the_matches_model(ops in ops()) {
        check_plain::<The>(&ops);
    }

    #[test]
    fn split_cl_matches_model(ops in ops()) {
        check_split::<Cl>(&ops);
    }

    #[test]
    fn split_the_matches_model(ops in ops()) {
        check_split::<The>(&ops);
    }
}
