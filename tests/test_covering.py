import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from convex_chroma import covering
from convex_chroma.covering import (
    CoveringCertificate,
    cover_by_translates,
    halton,
    known_certificate,
    verify_certificate,
)
from convex_chroma.geometry import (ConvexBody, GeometryError, minkowski_sum, reflect, scale_body,
                                    symmetrize)
from convex_chroma.homothet_coloring import symmetrized_certificate


class TestHalton:
    def test_deterministic_prefix(self):
        a = halton(100, 2)
        b = halton(200, 2)
        assert np.allclose(a, b[:100])

    def test_range(self):
        pts = halton(1000, 3)
        assert (pts > 0).all() and (pts < 1).all()


class TestKnownKappa:
    """The known covers' counts and translations, read from their certificates."""

    @staticmethod
    def known(body):
        cert = known_certificate(body)
        return None if cert is None else (cert.kappa_ub, cert.translations)

    def test_square(self, unit_square):
        count, translations = self.known(unit_square)
        assert count == 4
        assert sorted(translations) == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_cube(self):
        assert self.known(ConvexBody.box((1, 1, 1)))[0] == 8

    def test_disk_hexagonal(self, disk):
        count, translations = self.known(disk)
        assert count == 7
        assert translations[0] == (0.0, 0.0)
        radii = [math.hypot(*v) for v in translations[1:]]
        assert all(r == pytest.approx(math.sqrt(3)) for r in radii)

    def test_polygon_absent(self, triangle):
        assert self.known(triangle) is None


KNOWN_BODIES = {
    "square": ConvexBody.unit_square(),
    "cube": ConvexBody.box((1, 1, 1)),
    "disk": ConvexBody.disk(),
}


class TestKnownCertificates:
    """The box and disk covers are proven in closed form; these re-checks at
    100k samples are the reference the proofs are held to."""

    @pytest.mark.parametrize("name", sorted(KNOWN_BODIES))
    def test_built_without_samples(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("a closed-form certificate drew samples")

        monkeypatch.setattr(covering, "_sample_target", refuse)
        cert = known_certificate(KNOWN_BODIES[name])
        assert cert.verified_samples == 0
        assert cert.worst_margin == 0.0

    @pytest.mark.parametrize("name", ["square", "disk"])
    def test_every_translate_is_needed(self, name):
        cert = known_certificate(KNOWN_BODIES[name])
        for k in range(cert.kappa_ub):
            rest = cert.translations[:k] + cert.translations[k + 1:]
            broken = replace(cert, translations=rest, kappa_ub=len(rest))
            assert verify_certificate(broken, samples=100_000).uncovered > 0, k

    def test_square_certificate_verifies(self, unit_square):
        cert = known_certificate(unit_square)
        assert cert.kappa_ub == 4
        report = verify_certificate(cert, samples=100_000)
        assert report.uncovered == 0

    def test_disk_seven_cover_tight(self, disk):
        cert = known_certificate(disk)
        assert cert.kappa_ub == 7
        report = verify_certificate(cert, samples=100_000)
        assert report.uncovered == 0
        assert report.worst_margin >= -1e-9


class TestCoverByTranslates:
    def test_double_square_exactly_four(self, unit_square):
        cert = cover_by_translates(ConvexBody.box((2, 2)), unit_square, lattice_step=1.0)
        assert cert.kappa_ub == 4
        assert sorted(cert.translations) == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_containment_single_translate(self, unit_square):
        cert = cover_by_translates(unit_square, ConvexBody.box((2, 2)), lattice_step=1.0)
        assert cert.kappa_ub == 1

    def test_triangle_difference_hexagon(self, triangle):
        target = minkowski_sum(triangle, reflect(triangle))
        cert = cover_by_translates(target, triangle)
        assert 1 <= cert.kappa_ub <= 108  # classical difference-cover ceiling in the plane
        assert verify_certificate(cert, samples=100_000).uncovered == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_boxes_find_two_to_the_n(self, n):
        cube = ConvexBody.box((1,) * n)
        target = ConvexBody.box((2,) * n)
        cert = cover_by_translates(target, cube, lattice_step=1.0, samples=20_000)
        assert cert.kappa_ub == 2 ** n

    def test_monotone_under_unit_growth(self, unit_square):
        target = ConvexBody.box((2, 2))
        kappas = []
        for side in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0):
            cert = cover_by_translates(
                target, ConvexBody.box((side, side)), lattice_step=1.0, samples=20_000
            )
            kappas.append(cert.kappa_ub)
        assert all(a >= b for a, b in zip(kappas, kappas[1:]))

    def test_a_lattice_above_the_limit_is_rejected_before_sampling(self, monkeypatch):
        def no_samples(*args):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr(covering, "_sample_target", no_samples)
        thin = ConvexBody.polygon([(0, 0), (1, 0), (1, 1e-7)])
        with pytest.raises(GeometryError, match="720000045 lattice points x 101000 sample points"):
            cover_by_translates(minkowski_sum(thin, reflect(thin)), thin)

    def test_every_certificate_verifies_at_full_samples(self, unit_square, disk):
        certs = [
            known_certificate(unit_square),
            known_certificate(disk),
            cover_by_translates(ConvexBody.box((2, 2)), unit_square, lattice_step=1.0),
        ]
        for cert in certs:
            assert verify_certificate(cert, samples=100_000).uncovered == 0


class TestVerifyCertificate:
    def test_missing_quadrant_detected(self, unit_square):
        cert = cover_by_translates(ConvexBody.box((2, 2)), unit_square, lattice_step=1.0)
        broken = CoveringCertificate(
            target=cert.target, unit=cert.unit, translations=cert.translations[:3],
            kappa_ub=3, target_scale=cert.target_scale,
        )
        assert verify_certificate(broken, samples=20_000).uncovered > 0

    def test_minimum_samples(self, unit_square):
        cert = known_certificate(unit_square)
        with pytest.raises(ValueError):
            verify_certificate(cert, samples=100)

    def test_kappa_translation_consistency(self, unit_square):
        with pytest.raises(ValueError):
            CoveringCertificate(
                target=unit_square, unit=unit_square, translations=((0.0, 0.0),), kappa_ub=2
            )


class TestCertificateJson:
    def test_schema(self, disk):
        cert = known_certificate(disk)
        obj = json.loads(json.dumps(cert.to_json()))
        assert obj["kappa_ub"] == 7
        assert len(obj["translations"]) == 7
        assert obj["unit"]["kind"] == "disk"
        assert obj["target_scale"] == 2.0
        assert "unit_scale" not in obj
        # a closed-form cover: no samples drawn, tangent
        assert obj["verified_samples"] == 0
        assert obj["worst_margin"] == 0.0


class TestCeilingReference:
    def test_plane_value(self):
        from convex_chroma.covering import difference_cover_ceiling

        assert difference_cover_ceiling(2) == 108

    def test_constructed_difference_covers_stay_below(self, triangle):
        from convex_chroma.covering import difference_cover_ceiling

        target = minkowski_sum(triangle, reflect(triangle))
        cert = cover_by_translates(target, triangle)
        assert 1 <= cert.kappa_ub <= difference_cover_ceiling(2)


PIN_BODIES = {
    "triangle": ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]),
    "regular-pentagon": ConvexBody.polygon(
        [(math.cos(0.3 + 2 * math.pi * k / 5), math.sin(0.3 + 2 * math.pi * k / 5))
         for k in range(5)]
    ),
    "irregular-pentagon": ConvexBody.polygon([(0, 0), (2, 0), (2.5, 1), (1, 2), (-0.5, 1)]),
    "thin-quadrilateral": ConvexBody.polygon([(0, 0), (3, 0.2), (3.1, 0.5), (0.2, 0.4)]),
}
# kappa_ub and sha256 of json.dumps([kappa_ub, translations]) of the
# kappa(C-C, C) and kappa(2K, K) certificates at 20,000 samples, as built
# before the per-body formulas moved behind geometry's shape interface.
# These are sampled certificates: an exact cover check may change them, and
# must then re-pin them on purpose.
CERTIFICATE_PINS = {
    "triangle": (
        25, "8ab697c8ceec5d2e552eaffef16ee315730a3e7f1dde8ebb8e25aea81a2acfbb",
        9, "ac849eac9f84831f992e421d6e4b2b6236ae2a96b650ca50c9d280c87dfba3f9"),
    "regular-pentagon": (
        12, "96662b4974af7682e5e1dfd4da4cdf0c9e8d821d9bf8dd801b6480f05df130f9",
        12, "e3beddeea6d25b27b9106bccaa200afd068b87b3940db8995cbbee28a9ef729a"),
    "irregular-pentagon": (
        12, "f35f0c8f203f16dc5f21b7157f4aa680569e11a528b0c9f13e897d0328f46a4e",
        11, "0eafb09ea5ec6b9ec9ec2da47cacf196138bca50d1321af032430816f1d259fd"),
    "thin-quadrilateral": (
        10, "49a4a044e994a06ce76865a6244c5c13128b2ef9de5bebf672113ee9180d5db9",
        8, "3f5b456b7845efd3b99e2938c6deb8107451d1b723f1a61dd1e3c6c8f07f4968"),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_PINS))
def test_sampled_certificates_are_pinned(name):
    body = PIN_BODIES[name]
    difference = cover_by_translates(minkowski_sum(body, reflect(body)), body, samples=20_000)
    symmetrized = symmetrized_certificate(body, samples=20_000)
    got = []
    for cert in (difference, symmetrized):
        text = json.dumps([cert.kappa_ub, cert.translations])
        got += [cert.kappa_ub, hashlib.sha256(text.encode()).hexdigest()]
    assert tuple(got) == CERTIFICATE_PINS[name]


@pytest.mark.parametrize("name", sorted(PIN_BODIES))
def test_twice_the_symmetrization_is_the_difference_body(name):
    # symmetrized_certificate covers C-C by translates of K, and reads as a
    # kappa(2K, K) certificate because 2K is C-C, bit for bit
    body = PIN_BODIES[name]
    assert scale_body(symmetrize(body), 2.0) == minkowski_sum(body, reflect(body))
    assert symmetrized_certificate(body, samples=5_000).target == scale_body(symmetrize(body), 2.0)


# verified_samples and the float.hex of worst_margin of the same certificates,
# as built when every build drew its target's samples twice (once to prune,
# once more to verify the result)
MARGIN_PINS = {
    "triangle": (21000, "0x1.46f22c0f73180p-10", 21000, "0x1.82a4a0e0ea400p-10"),
    "regular-pentagon": (21000, "0x1.2b6e525f27500p-8", 21000, "0x1.ebab44f088e00p-8"),
    "irregular-pentagon": (21000, "0x1.c9b908900fb50p-6", 21000, "0x1.3198df6186500p-5"),
    "thin-quadrilateral": (21000, "0x1.4120edd68c000p-15", 21000, "0x1.e09b893c11000p-14"),
}


def _built_certificates(body, samples=20_000):
    return (cover_by_translates(minkowski_sum(body, reflect(body)), body, samples=samples),
            symmetrized_certificate(body, samples=samples))


@pytest.mark.parametrize("name", sorted(MARGIN_PINS))
def test_certificate_margins_are_pinned(name):
    got = []
    for cert in _built_certificates(PIN_BODIES[name]):
        got += [cert.verified_samples, float(cert.worst_margin).hex()]
    assert tuple(got) == MARGIN_PINS[name]


@pytest.mark.parametrize("name", ["triangle", "irregular-pentagon"])
def test_built_check_equals_a_fresh_verification(name):
    for cert in _built_certificates(PIN_BODIES[name]):
        report = verify_certificate(cert, samples=20_000)
        assert report.ok
        assert cert.verified_samples == report.samples
        assert np.float64(cert.worst_margin).view(np.int64) == \
            np.float64(report.worst_margin).view(np.int64)


def test_a_build_draws_its_samples_once(monkeypatch, triangle, unit_square):
    draws = []
    sample_target = covering._sample_target

    def counted(body, scale, samples):
        draws.append((body, scale, samples))
        return sample_target(body, scale, samples)

    monkeypatch.setattr(covering, "_sample_target", counted)
    target = minkowski_sum(triangle, reflect(triangle))
    cert = cover_by_translates(target, triangle, samples=5_000)
    assert draws == [(target, 1.0, 5_000)]
    assert cert.verified_samples == 5_000 + covering.BOUNDARY_SAMPLES
    draws.clear()
    cert = known_certificate(unit_square)
    assert draws == [] and cert.verified_samples == 0
    verify_certificate(cert, samples=5_000)
    assert draws == [(cert.target, cert.target_scale, 5_000)]


def test_too_few_samples_rejected_before_a_build(triangle, unit_square):
    with pytest.raises(ValueError, match="at least 1000"):
        cover_by_translates(minkowski_sum(triangle, reflect(triangle)), triangle, samples=999)
    # a closed-form cover takes no sample count; re-checking it still needs 1000
    with pytest.raises(ValueError, match="at least 1000"):
        verify_certificate(known_certificate(unit_square), samples=999)
