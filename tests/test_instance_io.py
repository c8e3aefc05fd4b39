import csv
import io
import json
import math
import re

import pytest

from confl3.confl import build_3confl, validate_instance
from confl3.instance_io import (
    FORMAT_TAG,
    GeneratorParams,
    ResultRow,
    SchemaError,
    generate,
    read_instance,
    report,
    write_instance,
)

from instances import REFERENCE_GAP_ROWS, wired_tiny

TINY = dict(
    grid_width=4,
    grid_height=3,
    n_facilities=3,
    n_central_offices=1,
    n_steiner=1,
    users_per_pixel=0.6,
    radii={1: 2.0, 2: 3.0, 3: 4.0},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5},
)


class TestGenerate:
    def test_default_shape(self):
        inst = generate(GeneratorParams(), 1)
        assert len(inst.facilities) == 30
        assert len(inst.central_offices) == 5
        assert len(inst.users) == 25 * 18  # density 1: one user per pixel
        assert inst.technologies == (1, 2, 3)

    def test_byte_identical_under_same_seed(self):
        a = write_instance(generate(GeneratorParams(), 1))
        b = write_instance(generate(GeneratorParams(), 1))
        assert a == b

    def test_different_seeds_differ(self):
        a = write_instance(generate(GeneratorParams(**TINY), 1))
        b = write_instance(generate(GeneratorParams(**TINY), 2))
        assert a != b

    def test_fading_caps_at_one_inside_reference_distance(self):
        params = GeneratorParams(**TINY, reference_distance=3.0)
        inst = generate(params, 3)
        w = inst.wireless
        close = [
            (f, u)
            for f in inst.facilities
            for u in inst.users
            if math.dist(f.position, u.position) <= 3.0
        ]
        assert close, "expected at least one pair within the reference distance"
        for f, u in close:
            assert w.fading[f.id, u.id] == 1.0
        assert all(0.0 <= a <= 1.0 for a in w.fading.values())

    @pytest.mark.parametrize("seed", range(50))
    def test_small_instances_validate_and_build(self, seed):
        inst = generate(GeneratorParams(**TINY), seed)
        validate_instance(inst)
        confl = build_3confl(inst)
        assert len(confl.z) == 3 * len(inst.facilities)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_instances_validate_and_build(self, seed):
        inst = generate(GeneratorParams(), seed)
        confl = build_3confl(inst)
        n_arcs = len(inst.central_offices) + len(inst.core_arcs)
        assert len(confl.flow) == n_arcs * len(inst.facilities)

    def test_unattainable_parameters_error(self):
        params = GeneratorParams(
            **{**TINY, "radii": {1: 0.1, 2: 0.1, 3: 0.1}}, max_retries=3
        )
        with pytest.raises(ValueError, match="attainable"):
            generate(params, 0)

    def test_fraction_order_validated(self):
        with pytest.raises(ValueError, match="fraction_1"):
            GeneratorParams(coverage_fractions={1: 0.9, 2: 0.3, 3: 0.5}).validate()


class TestSerialization:
    def test_roundtrip_identity(self):
        inst = generate(GeneratorParams(**TINY), 7)
        text = write_instance(inst)
        back = read_instance(text)
        assert back == inst
        assert write_instance(back) == text

    def test_wired_instance_roundtrip(self):
        inst, _ = wired_tiny()
        assert read_instance(write_instance(inst)) == inst

    def test_missing_wireless_named_in_error(self):
        inst = generate(GeneratorParams(**TINY), 7)
        doc = json.loads(write_instance(inst))
        del doc["wireless"]
        with pytest.raises(SchemaError, match="wireless"):
            read_instance(json.dumps(doc))

    def test_out_of_range_fading_rejected(self):
        inst = generate(GeneratorParams(**TINY), 7)
        doc = json.loads(write_instance(inst))
        fid = inst.facilities[0].id
        uid = inst.users[0].id
        doc["wireless"]["fading"][fid][uid] = 1.5
        with pytest.raises(ValueError, match="fading"):
            read_instance(json.dumps(doc))

    def test_missing_field_path_reported(self):
        inst = generate(GeneratorParams(**TINY), 7)
        doc = json.loads(write_instance(inst))
        del doc["users"][0]["weight"]
        with pytest.raises(SchemaError, match=r"users\[0\]\.weight"):
            read_instance(json.dumps(doc))

    @pytest.mark.parametrize("users, path", [(["id"], "users[0]"), (["x"], "users[0]"),
                                             ([{"id": "u0", "weight": 1, "position": [0, 0]}, 3],
                                              "users[1]")])
    def test_non_object_entry_named(self, users, path):
        text = json.dumps({"meta": {}, "users": users})
        with pytest.raises(SchemaError, match=re.escape(f"{path}: expected an object")):
            read_instance(text)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["coverage_thresholds"].update({"1": None}),
         "coverage_thresholds.1: expected a number"),
        (lambda d: d["coverage_thresholds"].update({"1": "12"}),
         "coverage_thresholds.1: expected a number"),
        (lambda d: d["facilities"][0]["open_cost"].update({"1": None}),
         "facilities[0].open_cost.1: expected a number"),
        (lambda d: d["facilities"][0]["open_cost"].update({"2": True}),
         "facilities[0].open_cost.2: expected a number"),
        (lambda d: d["coverage_thresholds"].update({"one": 1.0}),
         "coverage_thresholds: technology key 'one' is not an integer"),
        (lambda d: d["facilities"][1]["open_cost"].update({"1.5": 1.0}),
         "facilities[1].open_cost: technology key '1.5' is not an integer"),
        (lambda d: d["assignment_arcs"].update({"t3": []}),
         "assignment_arcs: technology key 't3' is not an integer"),
        (lambda d: d["core_arcs"][0].update({"cost": math.nan}),
         "core_arcs[0].cost: expected a finite number, got nan"),
        (lambda d: d["core_arcs"][0].update({"cost": 10 ** 400}),
         "core_arcs[0].cost: expected a finite number, got an integer too large for a float"),
        (lambda d: d["facilities"][0]["open_cost"].update({"1": math.inf}),
         "facilities[0].open_cost.1: expected a finite number, got inf"),
        (lambda d: d["wireless"].update({"delta": math.nan}),
         "wireless.delta: expected a finite number, got nan"),
        (lambda d: d["wireless"]["fading"]["f0"].update({"u0": -math.inf}),
         "wireless.fading.f0.u0: expected a finite number, got -inf"),
        (lambda d: d["coverage_thresholds"].update({"01": 0.0}),
         "coverage_thresholds: technology key '01' repeats technology 1"),
        (lambda d: d["facilities"][0]["open_cost"].update({"+2": 0.0}),
         "facilities[0].open_cost: technology key '+2' repeats technology 2"),
        (lambda d: d["assignment_arcs"].update({" 3": []}),
         "assignment_arcs: technology key ' 3' repeats technology 3"),
        (lambda d: d["users"][0].update({"position": ["a", None, 3]}),
         "users[0].position: expected two numbers, got 3 entries"),
        (lambda d: d["users"][0].update({"position": ["a", 1.0]}),
         "users[0].position[0]: expected a number"),
        (lambda d: d["users"][1].update({"position": [0.5, None]}),
         "users[1].position[1]: expected a number"),
        (lambda d: d["facilities"][0].update({"position": [1.0]}),
         "facilities[0].position: expected two numbers, got 1 entries"),
        (lambda d: d["facilities"][1].update({"position": [math.inf, 0.0]}),
         "facilities[1].position[0]: expected a finite number, got inf"),
        (lambda d: d["facilities"][0].update({"position": [0.0, True]}),
         "facilities[0].position[1]: expected a number"),
        (lambda d: d["meta"].update({"name": ["x"]}), "meta.name: expected str"),
        (lambda d: d["meta"].update({"format": "x"}),
         "meta.format: expected 'confl3-instance/1', got 'x'"),
        (lambda d: d["meta"].update({"format": "confl3-instance/2"}),
         "meta.format: expected 'confl3-instance/1', got 'confl3-instance/2'"),
        (lambda d: d["meta"].update({"format": 1}),
         "meta.format: expected 'confl3-instance/1', got 1"),
    ], ids=["threshold-null", "threshold-string", "cost-null", "cost-bool",
            "threshold-key", "cost-key", "arcs-key", "arc-cost-nan", "arc-cost-huge-int",
            "open-cost-inf", "delta-nan", "fading-minus-inf", "threshold-repeated",
            "cost-repeated", "arcs-repeated", "user-position-length",
            "user-position-string", "user-position-null", "facility-position-length",
            "facility-position-inf", "facility-position-bool", "name-list", "format-x",
            "format-next-version", "format-number"])
    def test_malformed_number_or_technology_named(self, edit, message):
        doc = json.loads(write_instance(generate(GeneratorParams(**TINY), 7)))
        edit(doc)
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_instance(json.dumps(doc))

    def test_missing_format_tag_is_read(self):
        inst = generate(GeneratorParams(**TINY), 7)
        doc = json.loads(write_instance(inst))
        assert doc["meta"].pop("format") == FORMAT_TAG
        assert write_instance(read_instance(json.dumps(doc))) == write_instance(inst)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SchemaError, match="top level: expected an object"):
            read_instance("[]")

    def test_not_json_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            read_instance("not json at all {")


class TestReport:
    def test_anchor_rows(self):
        assert ResultRow("I1", 148.57, 131.23).delta_gap == pytest.approx(-11.67, abs=0.005)
        assert ResultRow("I13", 95.20, 52.08).delta_gap == pytest.approx(-45.29, abs=0.005)

    def test_equal_gaps_give_zero(self):
        text = report([ResultRow("X", 50.0, 50.0)])
        assert "0.00" in text

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            report([ResultRow("X", -1.0, 10.0)])

    def test_zero_reference_gap_has_no_delta(self):
        rows = [ResultRow("X", 0.0, 10.0), ResultRow("Y", 100.0, 90.0)]
        lines = report(rows).splitlines()
        assert lines[2].split() == ["X", "0.00", "10.00", "n/a"]
        assert lines[-1].split() == ["avg", "-10.00"]
        assert report(rows, csv=True).splitlines()[1] == "X,0.00,10.00,"
        assert report(rows[:1]).splitlines()[-1].split() == ["avg", "n/a"]

    def test_table_layout(self):
        rows = [ResultRow(i, r, h) for i, r, h, _ in REFERENCE_GAP_ROWS[:3]]
        text = report(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["ID", "Gap-Ref%", "Gap-Heu%", "ΔGap%"]
        assert lines[2].split() == ["I1", "148.57", "131.23", "-11.67"]
        assert lines[-1].startswith("avg")

    def test_csv_variant(self):
        rows = [ResultRow("I1", 148.57, 131.23)]
        text = report(rows, csv=True)
        assert text.splitlines() == [
            "id,gap_reference,gap_heuristic,delta_gap",
            "I1,148.57,131.23,-11.67",
        ]

    def test_csv_quotes_a_name_with_a_comma_and_a_quote(self):
        text = report([ResultRow('a,b"c', 38.37, 38.37)], csv=True)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1] == ['a,b"c', "38.37", "38.37", "0.00"]

    def test_average_footer_value(self):
        rows = [ResultRow("A", 100.0, 90.0), ResultRow("B", 100.0, 70.0)]
        text = report(rows)
        assert text.splitlines()[-1].split()[-1] == "-20.00"
