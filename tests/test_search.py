import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from synchrokit import monoid, pairgraph, search, sync
from synchrokit.core import Dfa, Transformation
from synchrokit.families import cerny
from synchrokit.monoid import PermutationGroup, _generates_symmetric, generates_symmetric_group
from synchrokit.search import (
    SearchConfig,
    SearchMode,
    SearchRecord,
    canonical_form,
    load_records,
    max_reset_threshold_exhaustive,
    random_pair_diameter_experiment,
    random_rt_experiment,
    record_from_json_dict,
    record_to_json_dict,
    summarize_results,
)
from synchrokit.sync import NOT_SYNCHRONIZING, _subset_table, reset_threshold_exact

from conftest import random_dfa, random_permutation


def relabel_states(d: Dfa, perm: list[int]) -> Dfa:
    """Conjugate every letter by a state relabeling (an automaton isomorphism)."""
    inv = [0] * d.n
    for i, x in enumerate(perm):
        inv[x] = i
    return Dfa(
        d.n,
        tuple(
            (name, Transformation(tuple(perm[t.images[inv[q]]] for q in range(d.n))))
            for name, t in d.letters
        ),
    )


def exact_rt(tables, n: int):
    """Shortest reset-word length by subset BFS, or ``None`` if there is none.

    Distances are stored off by one so 0 can mean "unvisited".
    """
    full = (1 << n) - 1
    if full & (full - 1) == 0:
        return 0
    dist = bytearray(1 << n)
    dist[full] = 1
    queue = [full]
    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        step = dist[mask]
        for table in tables:
            image = table[mask]
            if dist[image] == 0:
                if image & (image - 1) == 0:
                    return step
                dist[image] = step + 1
                queue.append(image)
    return None


def pair_symmetry(p1, p2, residual):
    """``(dead, sensitive)``: ``dead`` means some residual symmetry maps every
    triple ``(p1, p2, t)`` to a strictly smaller one; ``sensitive`` lists the
    other symmetries that fix ``{p1, p2}``, to be checked against each ``t``."""
    identity = residual[0][0]
    sensitive = []
    for g, ginv in residual:
        c1 = search._conjugate(p1, g, ginv)
        c2 = search._conjugate(p2, g, ginv)
        if c1 == p1 and c2 < p2:
            return True, []
        if c2 < p1 or (c2 == p1 and c1 < p2):
            return True, []
        if g != identity and ((c1 == p1 and c2 == p2) or (c2 == p1 and c1 == p2)):
            sensitive.append((g, ginv))
    return False, sensitive


def oracle_census_block(n: int, p1):
    """The census block of ``p1`` one candidate at a time: a symmetry check
    per rank letter and a subset BFS per surviving automaton."""
    perms, residual, rank_letters = search._census_context(n)[:3]
    for g, ginv in residual[1:]:
        if search._conjugate(p1, g, ginv) < p1:
            return p1, -1, None, None
    table1 = _subset_table([1 << q for q in p1])
    rank_tables = [(t, _subset_table([1 << q for q in t])) for t in rank_letters]
    best_rt, best_p2, best_t = -1, None, None
    for p2 in perms:
        if p2 < p1:
            continue
        dead, sensitive = pair_symmetry(p1, p2, residual)
        if dead or not _generates_symmetric((p1, p2), n):
            continue
        table2 = _subset_table([1 << q for q in p2])
        for t, table3 in rank_tables:
            if any(search._conjugate(t, g, ginv) < t for g, ginv in sensitive):
                continue
            rt = exact_rt((table1, table2, table3), n)
            assert rt is not None
            if rt > best_rt:
                best_rt, best_p2, best_t = rt, p2, t
    return p1, best_rt, best_p2, best_t


def unpruned_census_block(n: int, p1):
    """The census block of ``p1`` with one subset BFS over every rank letter
    for each pair that the cheap filters keep, as before the two-letter
    thresholds pruned the letters."""
    perms, residual, rank_letters, moves, _, rank, least = search._census_context(n)
    r1 = rank[p1]
    if least[r1] != r1:
        return p1, -1, None, None
    table1 = _subset_table([1 << q for q in p1])
    everyone = (1 << len(rank_letters)) - 1
    best_rt, best_p2, best_t = -1, None, None
    for p2 in perms[r1:]:
        if least[rank[p2]] < r1 or search._dead_pair(p1, p2, residual):
            continue
        if not monoid._transitive_with_odd((p1, p2), n):
            continue
        table2 = _subset_table([1 << q for q in p2])
        retiring, never = search._reset_levels(table1, table2, moves, everyone)
        if never:
            assert not _generates_symmetric((p1, p2), n)
        elif len(retiring) - 1 > best_rt and _generates_symmetric((p1, p2), n):
            best_rt, best_p2 = len(retiring) - 1, p2
            best_t = rank_letters[(retiring[-1] & -retiring[-1]).bit_length() - 1]
    return p1, best_rt, best_p2, best_t


def orbit_count_by_partitions(n: int) -> int:
    """The Burnside sum of ``search._pair_orbit_count``, one cycle type at a
    time: a type with centralizer order c, whose square has centralizer
    order c2, holds n!/c permutations, each fixing C(c, 2) + (c2 - c)/2 sets."""

    def partitions(rest: int, largest: int):
        if rest == 0:
            yield []
        for first in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - first, first):
                yield [first] + tail

    def centralizer_order(lengths):
        return math.prod(l ** lengths.count(l) * math.factorial(lengths.count(l)) for l in set(lengths))

    fixed = 0
    for lengths in partitions(n, n):
        squared = [m for l in lengths for m in ([l] if l % 2 else [l // 2] * 2)]
        c, c2 = centralizer_order(lengths), centralizer_order(squared)
        fixed += math.factorial(n) // c * (math.comb(c, 2) + (c2 - c) // 2)
    return fixed // math.factorial(n)


def centralizer_by_scan(p):
    """The permutations commuting with ``p``, by a scan of all of S_n."""
    n = len(p)
    return {g for g in itertools.permutations(range(n)) if all(g[p[q]] == p[g[q]] for q in range(n))}


class TestConjugators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_centralizer_of_every_class_is_the_scan(self, n):
        for rep, _ in search._conjugacy_classes(n):
            listed = list(search._conjugators(rep, rep))
            assert len(set(listed)) == len(listed)
            assert set(listed) == centralizer_by_scan(rep), rep

    def test_seeded_pairs_of_one_type(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 7)
            x = tuple(random_permutation(rng, n).images)
            g = tuple(random_permutation(rng, n).images)
            y = search._conjugate(x, g, search._inv(g))
            listed = list(search._conjugators(x, y))
            assert all(search._conjugate(x, h, search._inv(h)) == y for h in listed)
            assert len(set(listed)) == len(listed) == len(centralizer_by_scan(y))

    def test_pairs_of_two_types_have_none(self):
        assert list(search._conjugators((1, 2, 0, 3), (1, 0, 3, 2))) == []


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(n=5, mode=SearchMode.RANDOM, trials=10)
        assert cfg.seed == 0 and cfg.output_path is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=1, mode=SearchMode.RANDOM)
        with pytest.raises(ValueError):
            SearchConfig(n=5, mode=SearchMode.RANDOM, trials=-1)
        with pytest.raises(ValueError):
            SearchConfig(n=5, mode=SearchMode.RANDOM, seed=-3)
        with pytest.raises(ValueError):
            SearchConfig(n=5, mode=SearchMode.RANDOM, seed=2**64)
        with pytest.raises(ValueError, match="workers must be positive"):
            max_reset_threshold_exhaustive(4, workers=0)

    def test_exhaustive_at_eight_states_warns_nothing(self, monkeypatch):
        class CensusStarted(Exception):
            pass

        def no_census(args):
            raise CensusStarted

        monkeypatch.setattr(search, "_census_block", no_census)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CensusStarted):
                max_reset_threshold_exhaustive(8)

    def test_exhaustive_refuses_more_than_physical_memory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sync, "_physical_memory", lambda: search._census_bytes(5, 1))
        assert max_reset_threshold_exhaustive(5)[0] == 14
        path = tmp_path / "census.jsonl"
        need = search._census_bytes(5, 2)
        with pytest.raises(ValueError, match=f"needs up to {need} bytes"):
            max_reset_threshold_exhaustive(5, workers=2, output_path=path)
        assert not path.exists()

        # 328 GB at ten states: refused before the 10! permutations are listed
        monkeypatch.setattr(sync, "_physical_memory", lambda: 8 << 30)
        with pytest.raises(ValueError, match="more than the 8589934592 bytes"):
            max_reset_threshold_exhaustive(10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_memory_estimate_bounds_the_context(self, n):
        one_context = search._census_bytes(n, 2) - search._census_bytes(n, 1)
        tracemalloc.start()
        try:
            search._census_context.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= one_context

    def test_residual_orbit_count_is_the_contexts(self):
        # the Burnside count against the orbit-least permutations of the
        # context, then the counts the context would take too long to give
        for n in range(2, 7):
            least = search._census_context(n)[-1]
            assert search._residual_orbit_count(n) == sum(r == c for r, c in enumerate(least))
        assert [search._residual_orbit_count(n) for n in (7, 8, 9)] == [90, 150, 240]


class TestCanonicalForm:
    def test_fixed_point_of_itself(self, rng):
        for _ in range(30):
            d = random_dfa(rng, rng.randint(2, 5), rng.randint(1, 3))
            canon = canonical_form(d)
            assert canonical_form(canon) == canon

    def test_invariant_under_state_relabeling(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            d = random_dfa(rng, n, rng.randint(1, 3))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel_states(d, perm)) == canonical_form(d)

    def test_invariant_under_reordering_equal_rank_letters(self):
        a = Transformation((1, 2, 3, 0))
        b = Transformation((1, 0, 2, 3))
        t = Transformation((0, 0, 2, 3))
        d1 = Dfa(4, (("a", a), ("b", b), ("c", t)))
        d2 = Dfa(4, (("a", b), ("b", a), ("c", t)))
        assert canonical_form(d1) == canonical_form(d2)

    def test_preserves_reset_threshold(self, rng):
        for _ in range(25):
            d = random_dfa(rng, rng.randint(2, 5), 2)
            before = reset_threshold_exact(d)
            after = reset_threshold_exact(canonical_form(d))
            if before is NOT_SYNCHRONIZING:
                assert after is NOT_SYNCHRONIZING
            else:
                assert after[0] == before[0]

    def test_names_stay_positional(self):
        d = cerny(4)
        canon = canonical_form(d)
        assert canon.letter_names() == ("a", "b")


class TestSearchRecord:
    def _record(self) -> SearchRecord:
        d = cerny(4)
        rt, word = reset_threshold_exact(d)
        return SearchRecord(dfa=d, rt=rt, witness=word)

    def test_verify(self):
        self._record().verify()

    def test_verify_rejects_wrong_threshold(self):
        rec = self._record()
        with pytest.raises(ValueError):
            SearchRecord(dfa=rec.dfa, rt=rec.rt + 1, witness=rec.witness).verify()

    def test_json_round_trip(self):
        rec = self._record()
        obj = record_to_json_dict(rec)
        assert obj["type"] == "record"
        back = record_from_json_dict(obj)
        assert back.dfa == rec.dfa and back.rt == rec.rt and back.witness == rec.witness

    def test_load_re_verifies(self):
        obj = record_to_json_dict(self._record())
        obj["rt"] -= 1
        with pytest.raises(ValueError):
            record_from_json_dict(obj)
        obj2 = record_to_json_dict(self._record())
        obj2["witness"] = list(obj2["witness"][:-1])
        with pytest.raises(ValueError):
            record_from_json_dict(obj2)


ONE_STATE = '{"n":1,"letters":[{"name":"a","images":[0]}]}'


class TestExhaustiveCensus:
    # largest reset threshold over two symmetric-group-generating permutation
    # letters plus one rank n-1 letter, verified against an unreduced
    # enumeration when this module was first built
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 4), (4, 8)])
    def test_small_sizes(self, n, expected):
        max_rt, record = max_reset_threshold_exhaustive(n)
        assert max_rt == expected
        assert record.rt == expected
        record.verify()
        assert canonical_form(record.dfa) == record.dfa

    def test_five_states(self):
        max_rt, record = max_reset_threshold_exhaustive(5)
        assert max_rt == 14
        assert record.rt == 14
        record.verify()

    def test_journal_and_resume(self, tmp_path):
        path = tmp_path / "census.jsonl"
        first = max_reset_threshold_exhaustive(4, output_path=path)
        summary = summarize_results(path)
        assert summary["kind"] == "max-rt-census"
        assert summary["complete"] and summary["max_rt"] == 8
        assert summary["blocks_done"] == 24

        # a finished journal replays without recomputing anything
        again = max_reset_threshold_exhaustive(4, output_path=path, resume=True)
        assert again[0] == first[0] and again[1] == first[1]

        # truncating the tail forces a partial recomputation
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:10]))
        resumed = max_reset_threshold_exhaustive(4, output_path=path, resume=True)
        assert resumed[0] == first[0] and resumed[1] == first[1]
        assert summarize_results(path)["complete"]

    def test_clean_journal_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(4, output_path=path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "1afaea8187d8adf578401622c3ab06f6e761907be7808f08a21021f6ce8862d9"

    @pytest.mark.parametrize("n", [5, pytest.param(6, marks=pytest.mark.extended)])
    def test_larger_journal_bytes_are_frozen(self, tmp_path, n):
        # one process starts each block from the maximum so far, a pool from -1
        for workers in (1, 2) if n == 5 else (1,):
            path = tmp_path / f"census-{workers}.jsonl"
            max_reset_threshold_exhaustive(n, workers=workers, output_path=path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == {
                5: "6a3f1b04f94b97e74e7a191bf0f4a418f7ad76a3cb068bf179bf9591dc5ecff5",
                6: "42147110825596a54b40e1cf33d0eb7d337255359cb2da52ddabfc526f9c7e1c",
            }[n], workers

    @pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.extended)])
    def test_blocks_match_the_per_candidate_oracle(self, n):
        # a block reports only a maximum above its floor, and then the oracle's
        for p1 in search._census_context(n)[0]:
            expected = oracle_census_block(n, p1)
            top = expected[1]
            for floor in (-1, top - 1, top):
                got = search._census_block((n, p1, floor))
                assert got == (expected if top > floor else (p1, -1, None, None)), (p1, floor)

    def test_one_process_starts_each_block_from_the_maximum_so_far(self, tmp_path, monkeypatch):
        tops = [search._census_block((5, p1, -1))[1] for p1 in search._census_context(5)[0]]
        before = list(itertools.accumulate(tops, max, initial=-1))[:-1]
        floors, block = [], search._census_block
        monkeypatch.setattr(search, "_census_block", lambda args: floors.append(args[2]) or block(args))
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(5, output_path=path)
        assert floors == before and floors[2:] == [14] * (len(floors) - 2)
        # a resumed run starts from the maximum of the replayed blocks
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:40]))
        done = sum('"type":"block"' in line for line in lines[:40])
        floors.clear()
        max_reset_threshold_exhaustive(5, output_path=path, resume=True)
        assert floors == before[done:] and floors[0] > -1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_least_conjugate_ranks_match_brute_force(self, n):
        perms, residual, _, _, _, rank, least = search._census_context(n)
        assert [rank[p] for p in perms] == list(range(len(perms)))
        for r, p in enumerate(perms):
            smallest = min(search._conjugate(p, g, ginv) for g, ginv in residual)
            assert perms[least[r]] == smallest

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_filters_pass_exactly_the_live_pairs(self, n, monkeypatch):
        # a dead pair cannot change its block's result, so the oracle does not
        # see a filter that lets one through; this compares the pairs themselves
        perms, residual = search._census_context(n)[:2]
        passed = []
        check = monoid._transitive_with_odd
        monkeypatch.setattr(
            search, "_transitive_with_odd", lambda gens, n: passed.append(gens) or check(gens, n)
        )
        for p1 in perms:
            search._census_block((n, p1, -1))
        live = [
            (p1, p2)
            for p1 in perms
            if all(search._conjugate(p1, g, ginv) >= p1 for g, ginv in residual)
            for p2 in perms
            if p2 >= p1 and not pair_symmetry(p1, p2, residual)[0]
        ]
        assert passed == live

    def test_a_pair_with_an_automaton_that_never_resets(self):
        # a 4-cycle and the identity: transitive with an odd letter, but the
        # group is C4, and some rank letter leaves the automaton unsynchronized
        n, p1, p2 = 4, (0, 1, 2, 3), (2, 3, 1, 0)
        assert monoid._transitive_with_odd((p1, p2), n)
        assert not _generates_symmetric((p1, p2), n)
        _, _, rank_letters, moves, _, _, _ = search._census_context(n)
        everyone = (1 << len(rank_letters)) - 1
        tables = [_subset_table([1 << q for q in p]) for p in (p1, p2)]
        assert search._reset_levels(*tables, moves, everyone)[1]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pruned_blocks_match_blocks_over_every_rank_letter(self, n):
        for p1 in search._census_context(n)[0]:
            assert search._census_block((n, p1, -1)) == unpruned_census_block(n, p1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_letter_thresholds_match_the_exact_search(self, n):
        perms, _, rank_letters, _, resets, _, _ = search._census_context(n)
        pairs = [(r, i) for r in range(len(perms)) for i in range(len(rank_letters))]
        if n == 5:
            pairs = random.Random(5).sample(pairs, 300)
        for r, i in pairs:
            rts, relabel = resets[r]
            found = reset_threshold_exact(search._dfa(n, perms[r], rank_letters[i]))
            assert rts[relabel[i]] == (255 if found is NOT_SYNCHRONIZING else found[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_after_torn_line(self, tmp_path, workers):
        clean = tmp_path / "clean.jsonl"
        max_reset_threshold_exhaustive(4, output_path=clean)
        data = clean.read_bytes()
        starts = [0] + [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]
        ends = starts[1:] + [len(data)]
        # a cut in the middle of every line: header, records, blocks, result
        cuts = [(s + e) // 2 for s, e in zip(starts, ends)]
        # and a cut between a new-maximum record and the block line after it
        cuts += [e for s, e in zip(starts, ends) if data[s:e].startswith(b'{"config"')]
        if workers > 1:
            cuts = cuts[:: len(cuts) // 3]
        path = tmp_path / "torn.jsonl"
        for cut in cuts:
            path.write_bytes(data[:cut])
            max_rt, record = max_reset_threshold_exhaustive(
                4, output_path=path, resume=True, workers=workers
            )
            assert max_rt == 8 and record.rt == 8
            assert path.read_bytes() == data, f"cut at byte {cut}"

    def test_resume_refuses_foreign_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"not a journal")
        with pytest.raises(ValueError):
            max_reset_threshold_exhaustive(4, output_path=path, resume=True)
        assert path.read_bytes() == b"not a journal"

    def test_resume_refuses_a_journal_without_records(self, tmp_path):
        # the header and every block line, with the record and result lines
        # dropped: every n has a candidate, so the journal lost its record
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(3, output_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(line for line in lines if '"type":"block"' in line))
        data = path.read_bytes()
        with pytest.raises(ValueError, match="records none"):
            max_reset_threshold_exhaustive(3, output_path=path, resume=True)
        assert path.read_bytes() == data

    def test_no_resume_overwrites(self, tmp_path):
        path = tmp_path / "census.jsonl"
        path.write_text('{"type":"header","format":1,"kind":"max-rt-census","config":{"n":3}}\n')
        max_rt, _ = max_reset_threshold_exhaustive(3, output_path=path, resume=False)
        assert max_rt == 4
        assert summarize_results(path)["complete"]

    def test_summarize_journal_cut_mid_write(self, tmp_path):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(4, output_path=path)
        data = path.read_bytes()
        cut = data[: len(data) // 2]
        assert not cut.endswith(b"\n")
        path.write_bytes(cut)
        lines = [json.loads(line) for line in cut[: cut.rfind(b"\n") + 1].splitlines()]
        assert summarize_results(path) == {
            "kind": "max-rt-census",
            "config": {"n": 4, "mode": "exhaustive"},
            "complete": False,
            "max_rt": max(line["rt"] for line in lines if line["type"] == "record"),
            "blocks_done": sum(line["type"] == "block" for line in lines),
            "records": sum(line["type"] == "record" for line in lines),
        }

    def test_load_records_of_a_journal_cut_mid_write(self, tmp_path):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(4, output_path=path)
        data = path.read_bytes()
        cut = data[: len(data) // 2]
        assert not cut.endswith(b"\n")
        path.write_bytes(cut)
        expected = [
            record_from_json_dict(obj)
            for obj in map(json.loads, cut[: cut.rfind(b"\n") + 1].splitlines())
            if obj["type"] == "record"
        ]
        assert expected and load_records(path) == expected

    def test_load_records_refuses_a_fractional_rt(self, tmp_path):
        # a witness of 14 letters must not pass for rt 14.9 by truncation
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(5, output_path=path)
        lines = path.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if '"type":"record"' in line)
        assert '"rt":14,' in lines[last]
        lines[last] = lines[last].replace('"rt":14,', '"rt":14.9,')
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="14.9 is not an integer"):
            load_records(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"type":"record"}', "malformed record JSON: 'dfa'"),
            ('{"type":"record","dfa":%s,"rt":0,"witness":["zz"]}' % ONE_STATE, "no letter named"),
            ('{"type":"record","dfa":%s,"rt":0,"witness":7}' % ONE_STATE, "malformed record JSON: witness 7 is not a list"),
            # the letters spelled as one string would reset in rt steps
            ('{"type":"record","dfa":%s,"rt":1,"witness":"a"}' % ONE_STATE, "malformed record JSON: witness 'a' is not a list"),
            ("[1,2]", "not a JSON object"),
        ],
        ids=["no-fields", "unknown-letter", "witness-not-a-list", "witness-a-string", "not-an-object"],
    )
    def test_load_records_refuses_a_malformed_line(self, tmp_path, line, message):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(3, output_path=path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match=message):
            load_records(path)

    @pytest.mark.parametrize(
        "at,message",
        [(0, "line 1: a line without a type before the header$"),
         (1, "line 2: a line without a type in a max-rt-census file$")],
        ids=["before-the-header", "after-it"],
    )
    def test_a_line_without_a_type_is_named_so(self, tmp_path, at, message):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(3, output_path=path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(at, '{"nope": 1}\n')
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=message):
            summarize_results(path)

    def test_records_load_and_verify(self, tmp_path):
        path = tmp_path / "census.jsonl"
        max_reset_threshold_exhaustive(4, output_path=path)
        records = load_records(path)
        assert records, "census journal should hold at least one record"
        assert max(rec.rt for rec in records) == 8


class TestRandomExperiment:
    def test_frozen_summary(self):
        cfg = SearchConfig(n=8, mode=SearchMode.RANDOM, trials=50, seed=42)
        summary = random_rt_experiment(cfg)
        assert summary == {
            "n": 8,
            "mode": "random",
            "trials": 50,
            "seed": 42,
            "method": "exact_bfs",
            "resampled": 23,
            "synchronizing": 50,
            "not_synchronizing": 0,
            "max": 25,
            "mean": 16.76,
            "p99": 25,
            "fraction_le_c_n_log2_n": {"1": 0.98, "2": 1.0, "4": 1.0},
        }

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            cfg = SearchConfig(n=7, mode=SearchMode.RANDOM, trials=25, seed=9, output_path=out)
            random_rt_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of the experiment files: the trial and summary lines are the
    # ones written when trials were searched one automaton at a time, and
    # the header names the sampling mode.  The four sampling modes (n = 7,
    # with automata that never reset when unconditioned), n = 14 in three
    # batches, and n = 16 in batches of one
    @pytest.mark.parametrize(
        "n,trials,seed,sample_nonperm,require_symmetric,digest",
        [
            (7, 16, 6, False, True, "5b8a32562b167293e94b7aa765caa0ccfb372a2deff21b95122418713ee3bde0"),
            (7, 16, 6, True, True, "483863da7354619d293a158687d7e608b3193651b6b4f25c733ab0ab0aef7b11"),
            (7, 16, 6, False, False, "94164c401f85dcea1c21b6ce3b4a2e7b64f7290ea5eacde87e099fedb44f4e12"),
            (7, 16, 6, True, False, "128d19aefbabd01a24df47bf28c50762aed990c967b03380d5e0127883db8280"),
            (14, 10, 6, True, False, "cb28f76a79d28b3a89f909919b41b17549eae2c130e3c2f08f35a3374822a7cb"),
            (16, 3, 7, False, True, "521012df9b69c274f18de55316a8ade5a73c6375984cc32c4fa5a71bf72bb981"),
        ],
    )
    def test_experiment_bytes_are_frozen(
        self, tmp_path, n, trials, seed, sample_nonperm, require_symmetric, digest
    ):
        out = tmp_path / "rrt.jsonl"
        cfg = SearchConfig(n=n, mode=SearchMode.RANDOM, trials=trials, seed=seed, output_path=out)
        random_rt_experiment(cfg, sample_nonperm=sample_nonperm, require_symmetric=require_symmetric)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_conditioning_keeps_every_trial_synchronizing(self):
        cfg = SearchConfig(n=9, mode=SearchMode.RANDOM, trials=40, seed=3)
        summary = random_rt_experiment(cfg)
        assert summary["synchronizing"] == 40
        assert summary["not_synchronizing"] == 0

    def test_unconditioned_sampling_admits_failures(self):
        cfg = SearchConfig(n=8, mode=SearchMode.RANDOM, trials=40, seed=7)
        conditioned = random_rt_experiment(cfg)
        unconditioned = random_rt_experiment(cfg, require_symmetric=False)
        assert conditioned["resampled"] > 0
        assert unconditioned["resampled"] == 0
        assert unconditioned["synchronizing"] == 36
        assert unconditioned["not_synchronizing"] == 4
        assert unconditioned["max"] == 22

    def test_zero_trials(self):
        cfg = SearchConfig(n=6, mode=SearchMode.RANDOM, trials=0, seed=9)
        summary = random_rt_experiment(cfg)
        assert summary["trials"] == 0
        assert summary["max"] is None and summary["mean"] is None and summary["p99"] is None

    def test_pairchase_above_the_exact_cap(self):
        cfg = SearchConfig(n=30, mode=SearchMode.RANDOM, trials=4, seed=11)
        summary = random_rt_experiment(cfg)
        assert summary["method"] == "pairchase"
        assert summary["synchronizing"] == 4
        assert summary["max"] < 4 * 30 * math.ceil(math.log2(30))

    def test_pairchase_records_draws_that_never_reset(self, tmp_path):
        out = tmp_path / "run.jsonl"
        cfg = SearchConfig(n=26, mode=SearchMode.RANDOM, trials=30, seed=0, output_path=out)
        summary = random_rt_experiment(cfg, require_symmetric=False)
        assert summary["method"] == "pairchase"
        assert summary["not_synchronizing"] == 4
        failed = [line for line in map(json.loads, out.read_text().splitlines())
                  if line["type"] == "trial" and not line["synchronizing"]]
        assert [line["trial"] for line in failed] == [0, 11, 18, 26]
        assert all(line["rt"] is None for line in failed)

    def test_summarize_matches_run(self, tmp_path):
        out = tmp_path / "run.jsonl"
        cfg = SearchConfig(n=8, mode=SearchMode.RANDOM, trials=15, seed=2, output_path=out)
        summary = random_rt_experiment(cfg)
        digest = summarize_results(out)
        assert digest["kind"] == "random-rt"
        assert digest["complete"]
        assert digest["summary"] == summary
        # one line per trial plus header and summary
        assert len(out.read_text().splitlines()) == 17
        # cut after seven trials, the file counts them and gives no census keys
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:8]))
        digest = summarize_results(out)
        assert not digest["complete"] and digest["trials_done"] == 7
        assert set(digest) == {"kind", "config", "complete", "trials_done"}


class TestPairDiameterExperiment:
    def test_exhaustive_five_states(self):
        summary = random_pair_diameter_experiment(SearchConfig(n=5, mode=SearchMode.EXHAUSTIVE))
        assert summary["max"] == 7

    @pytest.mark.parametrize(
        "n,digest",
        [
            (5, "add0ac086bfb0d8731727729cc32b98f0b15f4d18562c5af2c2c1df5e764c8f7"),
            (6, "346b7b3738f6db89e8e0d5ba56c7c5946754364690327047e266b081f768c7f2"),
        ],
    )
    def test_exhaustive_file_bytes_are_frozen(self, tmp_path, n, digest):
        # one trial per orbit, 89 at n = 5 and 484 at n = 6; a wrong
        # conjugation keeps or drops the wrong orbit representatives
        path = tmp_path / "pairs.jsonl"
        cfg = SearchConfig(n=n, mode=SearchMode.EXHAUSTIVE, output_path=path)
        random_pair_diameter_experiment(cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_exhaustive_mode_refuses_more_than_physical_memory(self, monkeypatch):
        listed = []
        monkeypatch.setattr(search, "_conjugacy_classes", lambda n: listed.append(n) or [])
        need = search._pair_diameter_bytes(10)
        monkeypatch.setattr(sync, "_physical_memory", lambda: need - 1)
        cfg = SearchConfig(n=10, mode=SearchMode.EXHAUSTIVE)
        with pytest.raises(
            ValueError,
            match=f"^the exhaustive pair-diameter experiment over 10 states needs up to {need} bytes",
        ):
            random_pair_diameter_experiment(cfg)
        assert listed == []  # refused before any permutation is listed

        # with just enough memory it runs; one orbit representative stands in
        cycle, swap = tuple(range(1, 10)) + (0,), (1, 0) + tuple(range(2, 10))
        monkeypatch.setattr(sync, "_physical_memory", lambda: need)
        monkeypatch.setattr(search, "_exhaustive_pair_classes", lambda n: iter([(cycle, swap)]))
        assert random_pair_diameter_experiment(cfg)["strongly_connected"] == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.extended)])
    def test_memory_estimate_bounds_the_run(self, n):
        tracemalloc.start()
        try:
            random_pair_diameter_experiment(SearchConfig(n=n, mode=SearchMode.EXHAUSTIVE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= search._pair_diameter_bytes(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.extended)])
    def test_one_trial_per_orbit(self, n):
        # every orbit has a representative, so as many as the orbits means one each
        assert sum(1 for _ in search._exhaustive_pair_classes(n)) == search._pair_orbit_count(n)

    def test_orbit_counts(self):
        # literal counts, independent of the Burnside sum that computes them
        assert [search._pair_orbit_count(n) for n in range(2, 9)] == [1, 5, 23, 89, 484, 2904, 22002]
        assert search._pair_orbit_count(9) == 190_555
        assert search._pair_orbit_count(10) == 1_876_337

    def test_orbit_counts_match_a_walk_over_the_partitions(self):
        for n in range(1, 16):
            assert search._pair_orbit_count(n) == orbit_count_by_partitions(n), n

    def test_orbit_count_at_fifty_states_is_quick(self):
        start = time.perf_counter()
        search._pair_orbit_count.__wrapped__(50)
        assert time.perf_counter() - start < 0.1

    def test_interrupted_run_reads_as_not_complete(self, monkeypatch, tmp_path):
        path = tmp_path / "pairs.jsonl"
        measured = []

        def diameter(p):
            if len(measured) == 10:
                raise RuntimeError("interrupted")
            measured.append(p)
            return pairgraph.diameter(p)

        monkeypatch.setattr(search, "diameter", diameter)
        with pytest.raises(RuntimeError, match="interrupted"):
            random_pair_diameter_experiment(
                SearchConfig(n=5, mode=SearchMode.EXHAUSTIVE, output_path=path)
            )
        entries, cut = search._journal(path)
        assert cut == b"" and [kind for kind, _ in entries] == ["header"] + ["trial"] * 10
        digest = summarize_results(path)
        assert digest["kind"] == "pair-diameter" and not digest["complete"]
        assert digest["config"] == {"n": 5, "mode": "exhaustive"} and "summary" not in digest
        assert digest["trials_done"] == 10
        assert not {"max_rt", "blocks_done", "records"} & set(digest)

    @pytest.mark.parametrize(
        "run,message",
        [
            (
                lambda path: random_pair_diameter_experiment(
                    SearchConfig(n=5, mode=SearchMode.EXHAUSTIVE, output_path=path)
                ),
                "needs up to",
            ),
            (
                lambda path: max_reset_threshold_exhaustive(4, output_path=path, resume=False),
                "needs up to",
            ),
            (lambda path: max_reset_threshold_exhaustive(1, output_path=path), "at least two states"),
        ],
        ids=["pair-diameter", "census", "census-bad-n"],
    )
    def test_refused_run_leaves_the_file_untouched(self, monkeypatch, tmp_path, run, message):
        path = tmp_path / "results.jsonl"
        path.write_bytes(b"an earlier file\n")
        monkeypatch.setattr(sync, "_physical_memory", lambda: 1)
        with pytest.raises(ValueError, match=message):
            run(path)
        assert path.read_bytes() == b"an earlier file\n"

    @pytest.mark.parametrize("n", [5, 6])
    def test_only_anchoring_classes_list_their_centralizer(self, monkeypatch, n):
        listed = []
        conjugators = search._conjugators

        def spy(x, y):
            if x == y:
                listed.append(x)
            return conjugators(x, y)

        monkeypatch.setattr(search, "_conjugators", spy)
        pairs = list(search._exhaustive_pair_classes(n))
        assert tuple(range(n)) not in listed
        assert sorted(listed) == sorted({anchor for anchor, _ in pairs})

    def test_exhaustive_above_the_census_cap_needs_no_opt_in(self, monkeypatch):
        # one orbit representative stands in for the 23393 of n = 8
        cycle, swap = tuple(range(1, 8)) + (0,), (1, 0) + tuple(range(2, 8))
        monkeypatch.setattr(search, "_exhaustive_pair_classes", lambda n: iter([(cycle, swap)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = random_pair_diameter_experiment(
                SearchConfig(n=8, mode=SearchMode.EXHAUSTIVE)
            )
        assert summary["trials"] == 1 and summary["strongly_connected"] == 1

    def test_random_mode_is_reproducible(self):
        cfg = SearchConfig(n=12, mode=SearchMode.RANDOM, trials=20, seed=5)
        assert random_pair_diameter_experiment(cfg) == random_pair_diameter_experiment(cfg)

    def test_random_run_with_no_strongly_connected_pair(self):
        cfg = SearchConfig(n=3, mode=SearchMode.RANDOM, trials=2, seed=12)
        summary = random_pair_diameter_experiment(cfg)
        assert summary["strongly_connected"] == 0 and summary["not_strongly_connected"] == 2
        assert summary["max_pair"] is None
        assert summary["max"] is None and summary["mean"] is None and summary["p99"] is None

    def test_random_summary_shape(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        cfg = SearchConfig(n=10, mode=SearchMode.RANDOM, trials=12, seed=4, output_path=out)
        summary = random_pair_diameter_experiment(cfg)
        assert summary["trials"] == 12
        assert summary["strongly_connected"] + summary["not_strongly_connected"] == 12
        assert set(summary["max_pair"]) == {"a", "b"}
        assert summarize_results(out)["complete"]


# The two experiment files whose lines the reader checks: every draw of the
# random-rt file synchronizes, and 39 of the 89 pair-diameter trials are not
# strongly connected.
EXPERIMENT_FILES = {
    "random-rt": lambda path: random_rt_experiment(
        SearchConfig(n=4, mode=SearchMode.RANDOM, trials=20, seed=3, output_path=path)
    ),
    "pair-diameter": lambda path: random_pair_diameter_experiment(
        SearchConfig(n=5, mode=SearchMode.EXHAUSTIVE, output_path=path)
    ),
}
DELETED = object()


class TestExperimentFileChecks:
    @pytest.mark.parametrize("kind", list(EXPERIMENT_FILES))
    def test_one_field_edits_are_refused(self, tmp_path, kind):
        path = tmp_path / "experiment.jsonl"
        EXPERIMENT_FILES[kind](path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        last = len(objs) - 1
        rng = random.Random(49)
        fields = [(last, key) for key in objs[last]]
        fields += [(i, key) for i in rng.sample(range(1, last), 8) for key in objs[i]]
        for i, key in fields:
            for value in (99, "x", [], None, DELETED):
                edited = [dict(obj) for obj in objs]
                if value is DELETED:
                    del edited[i][key]
                else:
                    edited[i][key] = value
                if edited[i] == objs[i]:
                    continue  # a null field set to null
                path.write_text("".join(map(search._json_line, edited)))
                if key == "resampled" and value == 99:
                    # not given by the trials, so any count is taken as written
                    assert summarize_results(path)["summary"]["resampled"] == 99
                    continue
                # a trial edit that fits its own line changes the summary
                with pytest.raises(ValueError, match=f", line ({i + 1}|{last + 1}): "):
                    summarize_results(path)

    def test_max_pair_must_measure_max(self, tmp_path):
        path = tmp_path / "experiment.jsonl"
        EXPERIMENT_FILES["pair-diameter"](path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        identity = list(range(5))
        objs[-1]["max_pair"] = {"a": identity, "b": identity}
        path.write_text("".join(map(search._json_line, objs)))
        with pytest.raises(ValueError, match="does not measure max 7"):
            summarize_results(path)

    def test_trials_past_the_header_count_are_refused(self, tmp_path):
        # with its summary dropped, a random file must still hold no more
        # trials than its header's count
        path = tmp_path / "experiment.jsonl"
        cfg = SearchConfig(n=6, mode=SearchMode.RANDOM, trials=10, seed=3, output_path=path)
        random_pair_diameter_experiment(cfg)
        objs = [json.loads(line) for line in path.read_text().splitlines()][:-1]
        objs += [dict(objs[-1], trial=10), dict(objs[-1], trial=11)]
        path.write_text("".join(map(search._json_line, objs)))
        with pytest.raises(ValueError, match="line 12: trial 10 past the header's 10 trials"):
            summarize_results(path)

    def test_trials_past_the_orbit_count_are_refused(self, tmp_path):
        # an exhaustive header names no count, but n = 5 has 89 pair orbits
        path = tmp_path / "experiment.jsonl"
        EXPERIMENT_FILES["pair-diameter"](path)
        objs = [json.loads(line) for line in path.read_text().splitlines()][:-1]
        objs += [dict(objs[-1], trial=89), dict(objs[-1], trial=90)]
        path.write_text("".join(map(search._json_line, objs)))
        with pytest.raises(ValueError, match="line 91: trial 89 past the header's 89 trials"):
            summarize_results(path)

    def test_exhaustive_summary_needs_every_orbit(self, tmp_path):
        # the last trial dropped, with the summary edited to agree with the rest
        path = tmp_path / "experiment.jsonl"
        EXPERIMENT_FILES["pair-diameter"](path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        header, trials = objs[0], objs[1:-2]
        counts = Counter(obj["diameter"] for obj in trials)
        pair = tuple(objs[-1]["max_pair"][x] for x in "ab")
        summary = search._pair_summary(header["config"], counts, pair)
        assert summary["max"] == objs[-1]["max"]  # the dropped trial is not the maximum
        path.write_text("".join(map(search._json_line, [header, *trials, {"type": "summary", **summary}])))
        with pytest.raises(ValueError, match="line 90: a summary after 88 of 89 trials"):
            summarize_results(path)

    @pytest.mark.parametrize(
        "write,edit,message",
        [
            (
                lambda path: random_pair_diameter_experiment(
                    SearchConfig(n=6, mode=SearchMode.RANDOM, trials=10, seed=2, output_path=path)
                ),
                lambda config: config.update(trials=99),
                "line 12: a summary after 10 of 99 trials",
            ),
            (
                lambda path: random_rt_experiment(
                    SearchConfig(n=5, mode=SearchMode.RANDOM, trials=10, seed=2, output_path=path)
                ),
                lambda config: config.update(sample_nonperm=99),
                "line 1: a header config that no random-rt run writes",
            ),
            (
                lambda path: random_rt_experiment(
                    SearchConfig(n=5, mode=SearchMode.RANDOM, trials=10, seed=2, output_path=path)
                ),
                lambda config: config.pop("require_symmetric"),
                "line 1: a header config that no random-rt run writes",
            ),
            (
                EXPERIMENT_FILES["pair-diameter"],
                lambda config: config.update(extra=0),
                "line 1: a header config that no pair-diameter run writes",
            ),
        ],
        ids=["trials-99", "sample-nonperm-99", "require-symmetric-deleted", "extra-key"],
    )
    def test_header_config_edits_are_refused(self, tmp_path, write, edit, message):
        path = tmp_path / "experiment.jsonl"
        write(path)
        assert summarize_results(path)["complete"]
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        edit(objs[0]["config"])
        path.write_text("".join(map(search._json_line, objs)))
        with pytest.raises(ValueError, match=message):
            summarize_results(path)

    @pytest.mark.parametrize("kind", list(EXPERIMENT_FILES))
    def test_trials_must_be_in_order(self, tmp_path, kind):
        path = tmp_path / "experiment.jsonl"
        EXPERIMENT_FILES[kind](path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 2: trial 1 at position 0"):
            load_records(path)


@settings(max_examples=25)
@given(st.data())
def test_symmetric_group_recognizer_agrees_with_the_chain(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(8, 13)
    p1 = tuple(random_permutation(r, n).images)
    p2 = tuple(random_permutation(r, n).images)
    expected = PermutationGroup(n, [p1, p2]).order() == math.factorial(n)
    assert generates_symmetric_group([Transformation(p1), Transformation(p2)], n) == expected


@settings(max_examples=20)
@given(st.data())
def test_canonical_form_is_an_isomorphism_invariant(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = random.Random(seed)
    n = r.randint(2, 5)
    d = random_dfa(r, n, r.randint(1, 2))
    perm = list(range(n))
    r.shuffle(perm)
    assert canonical_form(relabel_states(d, perm)) == canonical_form(d)
