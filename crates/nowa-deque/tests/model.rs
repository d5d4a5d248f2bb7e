//! Property-based model tests: single-threaded op sequences against a
//! reference `VecDeque`, for every deque algorithm.

use std::collections::VecDeque;

use nowa_deque::{Cl, DequeAlgo, Steal, StealerOps, The, WorkerOps};
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

/// Replays `ops` against the algorithm and a VecDeque model. Since all calls
/// happen on one thread, the deque must behave exactly like the model
/// (bounded algorithms are given enough capacity to never refuse).
fn check_model<A: DequeAlgo>(ops: &[Op]) {
    let (worker, stealer) = A::create::<usize>(512);
    let mut model: VecDeque<usize> = VecDeque::new();
    for op in ops {
        match op {
            Op::Push(v) => {
                worker.push(*v).unwrap();
                model.push_back(*v);
            }
            Op::Pop => {
                assert_eq!(worker.pop(), model.pop_back());
            }
            Op::Steal => {
                let expected = model.pop_front();
                match stealer.steal() {
                    Steal::Success(v) => assert_eq!(Some(v), expected),
                    Steal::Empty => assert_eq!(None, expected),
                    Steal::Retry => panic!("uncontended steal must not retry"),
                }
            }
        }
        assert_eq!(worker.len(), model.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cl_matches_model(ops in ops()) {
        check_model::<Cl>(&ops);
    }

    #[test]
    fn the_matches_model(ops in ops()) {
        check_model::<The>(&ops);
    }
}
