"""Explicit families and the three-part interval split."""

import os
import random
import subprocess
import sys

import pytest

from mstd import (
    CENTER_SET,
    ArithProg,
    ConstraintViolationError,
    IntSet,
    InvalidParameterError,
    Kind,
    Partition3Spec,
    ap,
    classify,
    default_blocks,
    is_arithmetic_progression,
    k_set,
    middle_window,
    nathanson_set,
    partition3,
    union_two_aps,
    validate_partition_spec,
)
from mstd import constructions
from mstd.constructions import HIGH_BLOCK_2, LOW_BLOCK_2, _chain_exists
from tests._oracles import (naive_cards, naive_is_sum_dominant, ref_default_m1,
                            ref_partition3_parts)

# the canonical worked split at m=21, element by element
A1_M21 = (
    [1, 2, 3, 4, 8, 9, 11, 13, 14, 15, 20, 24]
    + list(range(25, 62, 2))
    + [62, 71, 72, 84]
    + list(range(85, 122, 2))
    + [122, 126, 131, 132, 133, 136, 138, 142, 143, 144, 145]
)
A2_M21 = (
    [5, 6, 7, 10, 12, 16, 17, 18, 19, 21, 22, 23]
    + list(range(26, 61, 2))
    + [63, 64, 65, 67, 74, 75, 76, 79, 81, 82, 83]
    + list(range(86, 121, 2))
    + [123, 124, 125]
    + [127, 128, 129, 130, 134, 135, 137, 139, 140, 141]
)
S_M21 = [66, 68, 69, 70, 73, 77, 78, 80]


class TestAp:
    def test_golden(self):
        assert ap(7, 4, 5).elements == (7, 11, 15, 19, 23)
        assert ap(0, 1, 1).elements == (0,)

    def test_validation_passthrough(self):
        with pytest.raises(InvalidParameterError):
            ap(0, 0, 5)


class TestKSet:
    def test_smallest_member(self):
        assert k_set(9).elements == (0, 1, 2, 4, 7, 8, 9, 13, 15, 16)

    def test_cards_at_nine(self):
        c = classify(k_set(9))
        assert (c.sum_card, c.diff_card) == (32, 31)

    @pytest.mark.parametrize("m", range(9, 61))
    def test_excess_one(self, m):
        s = k_set(m)
        assert len(s) == m + 1
        c = classify(s)
        assert c.kind is Kind.SUM_DOMINANT and c.excess == 1

    def test_rejects_small_m(self):
        with pytest.raises(InvalidParameterError):
            k_set(8)

    def test_matches_naive(self):
        for m in (9, 12, 25):
            sc, dc = naive_cards(k_set(m).elements)
            c = classify(k_set(m))
            assert (c.sum_card, c.diff_card) == (sc, dc)

    def test_mask_build_matches_the_element_list(self):
        for m in [*range(9, 301), 4097, 123_457, 1_000_003]:
            elems = [0, 1, 2, 4, *range(7, m + 1), m + 4, m + 6, m + 7]
            kset = k_set(m)
            assert kset.elements == tuple(elems)
            assert kset == IntSet(elems)


class TestNathanson:
    def test_smallest_member(self):
        assert nathanson_set(5).elements == (0, 2, 3, 4, 7, 11, 15, 19, 20, 22)

    @pytest.mark.parametrize("k", range(5, 31))
    def test_excess_one(self, k):
        c = classify(nathanson_set(k))
        assert c.kind is Kind.SUM_DOMINANT and c.excess == 1

    def test_rejects_small_k(self):
        with pytest.raises(InvalidParameterError):
            nathanson_set(4)

    def test_matches_naive(self):
        for k in (5, 8, 12):
            sc, dc = naive_cards(nathanson_set(k).elements)
            c = classify(nathanson_set(k))
            assert (c.sum_card, c.diff_card) == (sc, dc)

    def test_mask_build_matches_the_element_list(self):
        for k in [*range(5, 301), 4099, 250_001]:
            elems = sorted({0, 2, 4, *range(3, 4 * k, 4), 4 * k, 4 * k + 2})
            nset = nathanson_set(k)
            assert nset.elements == tuple(elems)
            assert nset == IntSet(elems)


class TestUnionTwoAps:
    def test_golden(self):
        assert union_two_aps(ArithProg(0, 1, 2),
                             ArithProg(2, 1, 2)).elements == (0, 1, 2, 3)
        assert union_two_aps(ArithProg(0, 1, 4),
                             ArithProg(10, 1, 2)).elements \
            == (0, 1, 2, 3, 10, 11)

    def test_same_diff_overlap_merges(self):
        rng = random.Random(47)
        for _ in range(200):
            d = rng.randint(1, 8)
            n1 = rng.randint(2, 12)
            p1 = ArithProg(rng.randint(0, 60), d, n1)
            # force an overlap by starting p2 on one of p1's terms
            p2 = ArithProg(p1.start + d * rng.randint(0, n1 - 1), d,
                           rng.randint(2, 12))
            u = union_two_aps(p1, p2)
            assert is_arithmetic_progression(u) is not None

    def test_failed_merge_raises(self, monkeypatch):
        monkeypatch.setattr(constructions, "is_arithmetic_progression",
                            lambda a: None)
        with pytest.raises(InvalidParameterError):
            union_two_aps(ArithProg(0, 1, 3), ArithProg(2, 1, 3))

    def test_same_diff_union_never_sum_dominant(self):
        rng = random.Random(53)
        for _ in range(200):
            d = rng.randint(1, 6)
            p1 = ArithProg(rng.randint(0, 30), d, rng.randint(1, 8))
            p2 = ArithProg(rng.randint(0, 30), d, rng.randint(1, 8))
            u = union_two_aps(p1, p2)
            assert not naive_is_sum_dominant(u.elements)


class TestMiddleWindow:
    def test_smallest(self):
        assert middle_window(21).elements == (67, 71, 72, 74, 75, 76, 79)

    def test_grows_by_one(self):
        for m in range(21, 50):
            assert len(middle_window(m + 1)) == len(middle_window(m)) + 1

    def test_excludes_center(self):
        for m in (21, 40, 90):
            assert middle_window(m).isdisjoint(CENTER_SET)

    def test_rejects_small_m(self):
        with pytest.raises(InvalidParameterError):
            middle_window(20)


class TestValidateSpec:
    def test_worked_example_valid(self):
        spec = Partition3Spec(21, IntSet([71, 72]),
                              IntSet([67, 74, 75, 76, 79]))
        assert validate_partition_spec(spec) == []

    def test_default_blocks_valid_range(self, monkeypatch):
        # default_blocks raises on an invalid grid; it has no repair step;
        # and the chain certificate settles both chains of every division
        monkeypatch.setattr(constructions, "_sweep_chain", None)
        for m in range(21, 1200):
            spec = default_blocks(m)
            assert validate_partition_spec(spec) == [], m

    def test_overlap_flagged(self):
        spec = Partition3Spec(21, IntSet([71, 72]),
                              IntSet([71, 74, 75, 76, 79]))
        names = [v.constraint for v in validate_partition_spec(spec)]
        assert "disjointness" in names

    def test_coverage_flagged(self):
        spec = Partition3Spec(21, IntSet([71, 72]), IntSet([74, 75, 76, 79]))
        out = validate_partition_spec(spec)
        assert [v.constraint for v in out] == ["coverage"]
        assert out[0].positions == (67,)

    def test_missing_triplet_flagged(self):
        # m2 holds no three consecutive elements at all
        spec = Partition3Spec(21, IntSet([71, 72, 74, 75]),
                              IntSet([67, 76, 79]))
        out = validate_partition_spec(spec)
        assert [v.constraint for v in out] == ["m2-triplet-chain"]

    def test_missing_pair_flagged(self):
        spec = Partition3Spec(21, IntSet([67, 71, 74, 79]),
                              IntSet([72, 75, 76]))
        names = [v.constraint for v in validate_partition_spec(spec)]
        assert "m1-pair-chain" in names

    def test_small_m_flagged(self):
        spec = Partition3Spec(9, IntSet([71, 72]), IntSet([67]))
        out = validate_partition_spec(spec)
        assert [v.constraint for v in out] == ["m-range"]


def run_starts(s, width):
    # x such that x, x+1, ..., x+width-1 all lie in s, found element by element
    return [x for x in s.elements if all(x + i in s for i in range(width))]


def quadratic_chain_exists(s, width, max_gap, first_lo, first_hi, last_lo, last_hi):
    # the original sweep: each start is checked against every earlier
    # reachable start
    reach = []
    for x in run_starts(s, width):
        ok = first_lo <= x and x + width - 1 <= first_hi
        if not ok:
            ok = any(y + width <= x <= y + max_gap for y in reach)
        if ok:
            if last_lo <= x and x + width - 1 <= last_hi:
                return True
            reach.append(x)
    return False


class TestChainExists:
    def test_matches_quadratic_sweep(self, monkeypatch):
        swept, sweep = [], constructions._sweep_chain

        def spy(*args):
            swept.append(args)
            return sweep(*args)
        monkeypatch.setattr(constructions, "_sweep_chain", spy)
        rng = random.Random(59)
        decided = {"before the smear": 0, "certificate": 0, "sweep": 0}
        hits = 0
        for _ in range(3000):
            span = rng.randint(1, 200)
            density = rng.random()
            s = IntSet(x for x in range(60, 60 + span) if rng.random() < density)
            width = rng.randint(1, 3)
            max_gap = rng.randint(1, 40)
            first_lo = rng.randint(50, 100)
            first_hi = first_lo + rng.randint(0, 40)
            last_lo = rng.randint(60, 60 + span)
            last_hi = last_lo + rng.randint(0, 40)
            args = (width, max_gap, first_lo, first_hi, last_lo, last_hi)
            want = quadratic_chain_exists(s, *args)
            before = len(swept)
            assert _chain_exists(s, *args) == want, (s, args)
            hits += want
            firsts = [x for x in run_starts(s, width)
                      if first_lo <= x and x + width - 1 <= first_hi]
            if len(swept) > before:
                decided["sweep"] += 1
            elif firsts and max_gap >= width and last_lo <= last_hi - width + 1:
                decided["certificate"] += 1
            else:
                decided["before the smear"] += 1
        assert 300 < hits < 2700  # both outcomes well represented
        assert min(decided.values()) > 200, decided

    def test_certificate_skips_starts_no_chain_can_use(self, monkeypatch):
        # pair starts 10 (below the first zone), 70 (in it), 100 (a hop on)
        # and 150 (past the last zone): neither 10 nor 150 has a start a hop
        # behind it, and the certificate settles both answers without them
        monkeypatch.setattr(constructions, "_sweep_chain", None)
        s = IntSet([10, 11, 70, 71, 100, 101, 150, 151])
        assert _chain_exists(s, 2, 39, 66, 101, 95, 110)
        assert not _chain_exists(s, 2, 39, 66, 101, 120, 140)


class TestPartition3:
    def worked_spec(self):
        return Partition3Spec(21, IntSet([71, 72]),
                              IntSet([67, 74, 75, 76, 79]))

    def test_worked_example_exact(self):
        r = partition3(self.worked_spec())
        assert r.a1.elements == tuple(A1_M21)
        assert r.a2.elements == tuple(A2_M21)
        assert r.s.elements == tuple(S_M21)
        assert r.span == 145

    def test_worked_example_excesses(self):
        r = partition3(self.worked_spec())
        assert classify(r.a1).excess == 2
        assert classify(r.a2).excess == 2
        assert classify(r.s).excess == 1

    def test_parts_partition_interval(self):
        for m in (21, 30, 55):
            r = partition3(default_blocks(m))
            assert r.span == 124 + m
            assert r.a1.isdisjoint(r.a2)
            assert r.a1.isdisjoint(r.s) and r.a2.isdisjoint(r.s)
            assert (r.a1 | r.a2 | r.s) == IntSet(range(1, r.span + 1))

    @pytest.mark.parametrize("m", range(21, 41))
    def test_parts_sum_dominant(self, m):
        r = partition3(default_blocks(m))
        for part in (r.a1, r.a2, r.s):
            assert classify(part).kind is Kind.SUM_DOMINANT

    def test_invalid_spec_raises(self):
        bad = Partition3Spec(21, IntSet([71, 72]),
                             IntSet([71, 74, 75, 76, 79]))
        with pytest.raises(ConstraintViolationError) as info:
            partition3(bad)
        assert any(v.constraint == "disjointness"
                   for v in info.value.violations)

    def test_overlapping_assembly_raises(self, monkeypatch):
        # both parts take the same high block: a valid spec, broken assembly
        monkeypatch.setattr(constructions, "HIGH_BLOCK_1", HIGH_BLOCK_2)
        with pytest.raises(ConstraintViolationError) as info:
            partition3(self.worked_spec())
        (v,) = info.value.violations
        assert v.constraint == "disjointness"
        assert v.positions == tuple(e + 21 + 84 for e in HIGH_BLOCK_2)

    def test_uncovered_assembly_raises(self, monkeypatch):
        monkeypatch.setattr(constructions, "LOW_BLOCK_2", LOW_BLOCK_2 - IntSet([5]))
        with pytest.raises(ConstraintViolationError) as info:
            partition3(self.worked_spec())
        (v,) = info.value.violations
        assert (v.constraint, v.positions) == ("coverage", (5,))


class TestDefaultBlocks:
    def test_smallest(self):
        spec = default_blocks(21)
        assert spec.m1.elements == (71, 72)
        assert spec.m2.elements == (67, 74, 75, 76, 79)

    def test_rejects_small_m(self):
        with pytest.raises(InvalidParameterError):
            default_blocks(20)

    def test_invalid_division_raises(self, monkeypatch):
        # a division whose M2 also takes M1's pair fails the validation
        monkeypatch.setattr(constructions, "Partition3Spec",
                            lambda m, m1, m2: Partition3Spec(m, m1, m2 | m1))
        with pytest.raises(ConstraintViolationError) as info:
            default_blocks(21)
        assert [v.constraint for v in info.value.violations] == ["disjointness"]

    def test_window_division(self):
        for m in (21, 37, 64, 120):
            spec = default_blocks(m)
            assert spec.m1.isdisjoint(spec.m2)
            assert (spec.m1 | spec.m2) == middle_window(m)

    def test_matches_the_grid_loop(self):
        for m in [*range(21, 1200), 4567, 123_456, 2**24 - 125]:
            spec = default_blocks(m)
            assert spec.m1 == IntSet(ref_default_m1(m)), m
            assert spec.m2 == middle_window(m) - spec.m1, m

    def test_parts_match_the_written_out_blocks(self):
        for m in [*range(21, 401), 4567, 2**24 - 125]:
            spec = default_blocks(m)
            got = partition3(spec)
            assert (got.a1, got.a2) == ref_partition3_parts(spec), m


@pytest.mark.slow("about 8 s of subprocesses, on Linux")
@pytest.mark.skipif(not os.path.exists("/proc/self"), reason="reads /proc/self/status, on Linux")
@pytest.mark.parametrize("call,want,seconds,megabytes", [
    # the split of {1..2**24 - 1}: 16-21 s and 735 MB when the chains were swept
    ("str(mstd.partition3_feasible(2**24 - 1).witness[2])",
     "IntSet({66, 68, 69, 70, 73, 77, 78, 80})", 1, 120),
    # 1.9-2.7 s and 437 MB each when the gaps were a tuple
    ("mstd.ms_condition1(mstd.IntSet.from_bits(random.Random(9).getrandbits(2**24)"
     " | 1 << 2**24 - 1)).applies", "False", 0.5, 60),
    ("mstd.ms_condition1(mstd.IntSet.from_bits(int('01' * 2**23, 2))).applies",
     "True", 0.5, 60),
    # 1.8-3.2 s and 435-829 MB each when the gaps were a tuple
    ("mstd.is_arithmetic_progression(mstd.IntSet.from_bits((1 << 2**24) - 1))",
     "ArithProg(start=0, diff=1, length=16777216)", 0.5, 60),
    ("mstd.is_arithmetic_progression(mstd.IntSet.from_bits(int('01' * 2**23, 2)))",
     "ArithProg(start=0, diff=2, length=8388608)", 0.5, 60),
    # 2.6-3.1 s and 690 MB, and 4.6-5.5 s and 1.3 GB, when the gcd was taken over a tuple
    ("len(mstd.normalize_affine(mstd.IntSet.from_bits(int('01' * 2**23, 2))))",
     "8388608", 0.5, 120),
    ("len(mstd.normalize_affine(mstd.IntSet.from_bits((1 << 2**24) - 1)))",
     "16777216", 0.5, 120),
    # 1.6-2.1 s and 435 MB each when the gaps were a tuple
    ("mstd.infer_block_gap(mstd.IntSet.from_bits(random.Random(9).getrandbits(2**24)"
     " | 1 << 2**24 - 1))", "None", 0.5, 120),
    ("mstd.infer_block_gap(mstd.IntSet.from_bits(int('01' * 2**23, 2)))", "2", 0.5, 120),
    # runs of 98 between gaps of 3, the top run 16 long: 3.1-3.6 s and 816 MB from the tuple
    ("mstd.ms_condition2(mstd.IntSet.from_bits(int('1' * 16 + ('00' + '1' * 98) * 167772, 2)),"
     " 3).applies", "True", 0.5, 120),
    # the run kernel's cover: 0.3 s and 52 MB when it reflected the whole set
    # by its digit string for the top elements
    ("mstd.classify(mstd.IntSet.from_bits(random.Random(9).getrandbits(2**24)"
     " | 1 << 2**24 - 1))[1:]", "(33554429, 33554429)", 1, 120),
    # the interval path on the classes mod 2 and mod 4
    ("mstd.classify(mstd.IntSet.from_bits(int('01' * 2**23, 2)))[1:]",
     "(16777215, 16777215)", 1, 120),
    ("mstd.classify(mstd.nathanson_set((2**24 - 3) // 4))[1:]", "(25165826, 25165825)", 1, 120),
    # the evens with their top 256 positions thinned, and with one odd
    # element more: the cover stalls on the odd holes and hands both kinds
    # to the classes mod 2
    ("mstd.classify(mstd.IntSet.from_bits(int('01' * 2**23, 2)"
     " & ~(random.Random(16).getrandbits(254) << 2**24 - 256)))[1:]",
     "(16777213, 16777215)", 5, 300),
    ("mstd.classify(mstd.IntSet.from_bits(int('01' * 2**23, 2)"
     " & ~(random.Random(16).getrandbits(254) << 2**24 - 256) | 1 << 2**23 + 1))[1:]",
     "(25165751, 25165825)", 5, 300),
    # density 1/20, and two ends of 2**22 positions at 1/20 around an empty
    # middle, whose blocks the cover runs from all four ends
    ("mstd.classify(mstd.IntSet.from_bits(mstd.bits_of(random.Random(9).sample("
     "range(2**24), 2**24 // 20)) | 1 << 2**24 - 1))[1:]", "(33553122, 33553817)", 5, 300),
    ("mstd.classify(mstd.IntSet.from_bits(mstd.bits_of(random.Random(3).sample("
     "range(2**22), 2**22 // 20)) | (mstd.bits_of(random.Random(4).sample("
     "range(2**22), 2**22 // 20)) | 1 << 2**22 - 1) << 3 * 2**22))[1:]",
     "(25161731, 25163675)", 5, 300),
    # steps 7 and 12 overlapping in the middle: the classes mod 84
    ("mstd.classify(mstd.IntSet(range(0, 10**7, 7)) | mstd.IntSet(range(2**23 + 1, 2**24, 12)))"
     "[1:]", "(20151685, 33554353)", 5, 300),
    # one _smear: 2.7 s when its 2**24 ints were packed one by one
    ("len(mstd.IntSet(range(2**24)))", "16777216", 1, 60),
], ids=["partition3_feasible", "ms_condition1-half-full", "ms_condition1-evens",
        "is_arithmetic_progression-interval", "is_arithmetic_progression-evens",
        "normalize_affine-evens", "normalize_affine-interval", "infer_block_gap-half-full",
        "infer_block_gap-evens", "ms_condition2-blocks", "classify-half-full",
        "classify-evens", "classify-nathanson", "classify-thinned-evens",
        "classify-thinned-evens-and-odd", "classify-density-1/20", "classify-empty-middle",
        "classify-steps-7-and-12", "intset-range"])
def test_call_at_the_cap(call, want, seconds, megabytes):
    # a public call legal under the universe cap, in a fresh process: its
    # answer, its wall time and the process's peak memory (VmHWM, as
    # ru_maxrss would carry the forking test process's peak over exec)
    code = ("import random, time, mstd; start = time.perf_counter(); "
            f"got = {call}; wall = time.perf_counter() - start; "
            "status = open('/proc/self/status').read(); "
            "print(got, wall, status.split('VmHWM:')[1].split()[0])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    got, wall, rss_kib = out.stdout.rsplit(maxsplit=2)
    assert got == want
    assert float(wall) < seconds, out.stdout
    assert int(rss_kib) < megabytes * 1024, out.stdout
