//! Property tests of the cut stage's LCA classification
//! (`mincut::dist::one_respect::TfShape::classify`) over random rooted
//! fragment trees `T_F`.
//!
//! Each tree is a random recursive tree renumbered in the pre-order of a
//! depth-first walk with shuffled children, so stars, paths and bushy
//! trees all occur, with children in any order. For every ordered pair
//! of distinct fragments the classification must equal a naive
//! reference built from the two ancestor chains:
//!
//! * the first fragment is an ancestor of the second: case 3, with the
//!   child of the first on the second's chain;
//! * the second is an ancestor of the first: the other endpoint
//!   originates;
//! * neither: case 2, with the children of the deepest common ancestor
//!   on the two chains.
//!
//! The shape rows `orient.tf` streams must also carry the parent numbers
//! of fragments 2 onward in order (fragment 1's is always 0), and each
//! row must fit the edge unless it holds one number.

use congest::message::TAG_BITS;
use congest::Message;
use mincut::dist::one_respect::{shape_row_capacity, LcaCase, TfItem, TfShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random rooted tree on `k` fragments, as the parent numbers of
/// fragments `1..k` in the pre-order of a walk with shuffled children.
fn preorder_parents(seed: u64, k: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
    for v in 1..k {
        children[rng.gen_range(0..v)].push(v);
    }
    let mut num = vec![0u32; k];
    let mut parents = Vec::with_capacity(k.saturating_sub(1));
    let mut next = 0u32;
    let mut stack: Vec<(usize, u32)> = vec![(0, 0)];
    while let Some((v, parent)) = stack.pop() {
        num[v] = next;
        if v != 0 {
            parents.push(parent);
        }
        next += 1;
        children[v].shuffle(&mut rng);
        for &c in children[v].iter().rev() {
            stack.push((c, num[v]));
        }
    }
    parents
}

/// The chain `f, parent(f), …, 0` of a fragment.
fn chain(parents: &[u32], f: u32) -> Vec<u32> {
    let mut c = vec![f];
    while let Some(&last) = c.last().filter(|&&x| x != 0) {
        c.push(parents[last as usize - 1]);
    }
    c
}

/// The naive reference: ancestor chains compared element by element.
fn reference(parents: &[u32], mine: u32, theirs: u32) -> LcaCase {
    let (a, b) = (chain(parents, mine), chain(parents, theirs));
    if let Some(i) = b.iter().position(|&x| x == mine) {
        return LcaCase::InMine { child: b[i - 1] };
    }
    if a.contains(&theirs) {
        return LcaCase::InTheirs;
    }
    let i = a
        .iter()
        .position(|x| b.contains(x))
        .expect("chains meet at 0");
    let j = b.iter().position(|&x| x == a[i]).expect("common ancestor");
    LcaCase::Merging {
        g1: a[i - 1],
        g2: b[j - 1],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classification_matches_the_ancestor_walk(seed in 0u64..100_000, k in 1usize..48) {
        let parents = preorder_parents(seed, k);
        let shape = TfShape::new(&parents);
        prop_assert_eq!(shape.k(), k);
        for mine in 0..k as u32 {
            for theirs in (0..k as u32).filter(|&t| t != mine) {
                prop_assert_eq!(
                    shape.classify(mine, theirs),
                    reference(&parents, mine, theirs),
                    "fragments {} and {} of {:?}", mine, theirs, parents
                );
            }
        }
    }

    #[test]
    fn shape_rows_carry_the_parents_in_order(seed in 0u64..100_000, k in 1usize..300, budget in 16usize..160) {
        let parents = preorder_parents(seed, k);
        let rows = TfShape::new(&parents).rows(budget);
        let c = shape_row_capacity(k, budget);
        let sent = parents.get(1..).unwrap_or_default();
        prop_assert_eq!(rows.len(), sent.len().div_ceil(c));
        let mut got = Vec::new();
        for row in &rows {
            let TfItem::Shape { parents: slice, .. } = row else {
                panic!("not a shape row: {row:?}");
            };
            prop_assert!(c == 1 || TAG_BITS + row.bit_len() <= budget);
            got.extend_from_slice(slice);
        }
        prop_assert_eq!(got, sent);
    }
}
