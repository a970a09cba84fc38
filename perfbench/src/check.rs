//! The output check: every response is compared with the brute-force
//! [`Oracle`] of its query.
//!
//! An `Oracle` keeps one dense score per document (160 KiB at 20 000
//! documents), so holding one per distinct query would make the
//! checker, not the server, dominate `peak_rss_mib`. [`Expected`]
//! keeps only what the check reads: the exact top-k size, the k-th best
//! score, and the true score of every document that can appear in an
//! exact answer (score at least the k-th best, ties included).
//!
//! Full-scoring algorithms must report each hit's true score. The NRA
//! family (Sparta, pNRA, sNRA, NRA) stops once the top-k *set* is
//! certain and reports each hit's lower bound, which may leave out terms
//! it never reached (`tests/algorithms_agree.rs`,
//! `nra_family_scores_are_lower_bounds`); for them a hit's score must
//! be positive and at most its true score.

use sparta_core::Oracle;
use sparta_corpus::DocId;
use sparta_server::WireHit;

/// What an exact answer to one query must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    topk_len: usize,
    /// `(doc, true score)` of every admissible document, sorted by doc.
    admissible: Vec<(DocId, u64)>,
}

/// Why a response failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The answer has a different number of hits than the exact top-k.
    Length { got: usize, want: usize },
    /// The same document appears twice.
    Duplicate(DocId),
    /// A hit scores below the k-th best true score (recall < 1).
    NotInTopK(DocId),
    /// A hit's score differs from the document's true score.
    Score { doc: DocId, got: u64, want: u64 },
    /// A lower-bound hit's score is 0 or exceeds the true score.
    Bound { doc: DocId, got: u64, max: u64 },
}

/// What a hit's reported score must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreRule {
    /// The document's true score.
    Exact,
    /// Positive and at most the document's true score.
    LowerBound,
}

impl ScoreRule {
    /// The rule `algorithm` reports scores under.
    pub fn of(algorithm: &str) -> Self {
        match algorithm {
            "sparta" | "pnra" | "snra" | "nra" => ScoreRule::LowerBound,
            _ => ScoreRule::Exact,
        }
    }
}

impl Expected {
    /// Distils `oracle` into the check's compact form. `num_docs` bounds
    /// the documents scanned.
    pub fn from_oracle(oracle: &Oracle, num_docs: u64) -> Self {
        let topk_len = oracle.topk().len();
        let kth = oracle.topk().last().map_or(u64::MAX, |h| h.score).max(1);
        let admissible = (0..num_docs as DocId)
            .filter_map(|d| {
                let s = oracle.score(d);
                (s >= kth).then_some((d, s))
            })
            .collect();
        Self {
            topk_len,
            admissible,
        }
    }

    /// Checks one answer: tie-aware recall 1.0 (every hit is an
    /// admissible document, no duplicates, exactly `topk_len` hits) and
    /// every hit's score as `rule` requires.
    pub fn check(&self, hits: &[WireHit], rule: ScoreRule) -> Result<(), Mismatch> {
        if hits.len() != self.topk_len {
            return Err(Mismatch::Length {
                got: hits.len(),
                want: self.topk_len,
            });
        }
        let mut seen: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(Mismatch::Duplicate(w[0]));
        }
        for h in hits {
            let want = self
                .admissible
                .binary_search_by_key(&h.doc, |&(d, _)| d)
                .map(|i| self.admissible[i].1)
                .map_err(|_| Mismatch::NotInTopK(h.doc))?;
            match rule {
                ScoreRule::Exact if h.score != want => {
                    return Err(Mismatch::Score {
                        doc: h.doc,
                        got: h.score,
                        want,
                    })
                }
                ScoreRule::LowerBound if h.score == 0 || h.score > want => {
                    return Err(Mismatch::Bound {
                        doc: h.doc,
                        got: h.score,
                        max: want,
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparta_corpus::Query;
    use sparta_index::{InMemoryIndex, Posting};

    /// Scores for query {0, 1}: doc0 15, doc1 20, doc2 14, doc3 1,
    /// doc4 14 (tied with doc2 at the k = 3 boundary).
    fn oracle() -> Oracle {
        let t0 = vec![
            Posting::new(0, 10),
            Posting::new(1, 20),
            Posting::new(2, 7),
            Posting::new(4, 14),
        ];
        let t1 = vec![Posting::new(0, 5), Posting::new(2, 7), Posting::new(3, 1)];
        let ix = InMemoryIndex::from_term_postings(vec![t0, t1], 6);
        Oracle::compute(&ix, &Query::new(vec![0, 1]), 3)
    }

    fn hits(v: &[(DocId, u64)]) -> Vec<WireHit> {
        v.iter()
            .map(|&(doc, score)| WireHit { doc, score })
            .collect()
    }

    /// The oracle's own verdict: tie-aware recall 1.0 and exact scores.
    fn oracle_accepts(o: &Oracle, h: &[WireHit]) -> bool {
        let docs: Vec<DocId> = h.iter().map(|x| x.doc).collect();
        o.recall(&docs) == 1.0 && h.iter().all(|x| x.score == o.score(x.doc))
    }

    #[test]
    fn accepts_either_boundary_tie() {
        let o = oracle();
        let e = Expected::from_oracle(&o, 6);
        for answer in [
            hits(&[(1, 20), (0, 15), (2, 14)]),
            hits(&[(1, 20), (0, 15), (4, 14)]),
        ] {
            assert_eq!(e.check(&answer, ScoreRule::Exact), Ok(()));
            assert!(oracle_accepts(&o, &answer));
        }
    }

    #[test]
    fn flags_one_corrupted_score() {
        let o = oracle();
        let e = Expected::from_oracle(&o, 6);
        let bad = hits(&[(1, 20), (0, 16), (2, 14)]);
        assert_eq!(
            e.check(&bad, ScoreRule::Exact),
            Err(Mismatch::Score {
                doc: 0,
                got: 16,
                want: 15
            })
        );
        assert!(!oracle_accepts(&o, &bad));
        // Above the true score is wrong for a lower bound too.
        assert!(e.check(&bad, ScoreRule::LowerBound).is_err());
    }

    #[test]
    fn lower_bounds_may_fall_short_of_the_true_score() {
        let o = oracle();
        let e = Expected::from_oracle(&o, 6);
        let partial = hits(&[(1, 20), (0, 10), (2, 14)]);
        assert_eq!(e.check(&partial, ScoreRule::LowerBound), Ok(()));
        assert!(e.check(&partial, ScoreRule::Exact).is_err());
        let zero = hits(&[(1, 20), (0, 0), (2, 14)]);
        assert!(e.check(&zero, ScoreRule::LowerBound).is_err());
        // The set must still be the exact top-k.
        let wrong_doc = hits(&[(1, 20), (0, 15), (3, 1)]);
        assert!(e.check(&wrong_doc, ScoreRule::LowerBound).is_err());
        assert_eq!(ScoreRule::of("sparta"), ScoreRule::LowerBound);
        assert_eq!(ScoreRule::of("pra"), ScoreRule::Exact);
    }

    #[test]
    fn flags_what_the_oracle_rejects() {
        let o = oracle();
        let e = Expected::from_oracle(&o, 6);
        for bad in [
            hits(&[(1, 20), (0, 15), (3, 1)]),
            hits(&[(1, 20), (0, 15)]),
            hits(&[(1, 20), (0, 15), (0, 15)]),
        ] {
            assert!(e.check(&bad, ScoreRule::Exact).is_err(), "{bad:?}");
            assert!(!oracle_accepts(&o, &bad), "{bad:?}");
        }
        // More than k hits: the oracle's recall is capped at 1.0 and
        // misses it; the length check does not.
        let over = hits(&[(1, 20), (0, 15), (2, 14), (4, 14)]);
        assert!(e.check(&over, ScoreRule::Exact).is_err());
    }

    #[test]
    fn fewer_matches_than_k() {
        let t0 = vec![Posting::new(2, 3), Posting::new(5, 9)];
        let ix = InMemoryIndex::from_term_postings(vec![t0], 8);
        let o = Oracle::compute(&ix, &Query::new(vec![0]), 4);
        let e = Expected::from_oracle(&o, 8);
        assert_eq!(e.check(&hits(&[(5, 9), (2, 3)]), ScoreRule::Exact), Ok(()));
        assert!(e.check(&hits(&[(5, 9)]), ScoreRule::Exact).is_err());
    }
}
