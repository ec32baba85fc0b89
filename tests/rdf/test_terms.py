"""Tests for RDF term value objects."""

import pytest

from repro.rdf.terms import BNode, Literal, Namespace, URI, Variable


class TestURI:
    def test_equality_by_value(self):
        assert URI("http://a/x") == URI("http://a/x")
        assert URI("http://a/x") != URI("http://a/y")

    def test_hashable(self):
        assert len({URI("http://a/x"), URI("http://a/x")}) == 1

    def test_distinct_from_other_kinds_with_the_same_text(self):
        terms = {URI("x"), Literal("x"), BNode("x"), Variable("x")}
        assert len(terms) == 4
        assert URI("x") in terms and "x" not in terms

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            URI("")

    def test_local_name_fragment(self):
        assert URI("http://a/ns#C1").local_name == "C1"

    def test_local_name_path(self):
        assert URI("http://a/ns/C1").local_name == "C1"

    def test_namespace_part(self):
        assert URI("http://a/ns#C1").namespace == "http://a/ns#"

    def test_n3(self):
        assert URI("http://a/x").n3() == "<http://a/x>"

    def test_immutable(self):
        uri = URI("http://a/x")
        with pytest.raises(AttributeError):
            uri.value = "other"

    def test_ordering(self):
        assert URI("http://a/a") < URI("http://a/b")

    def test_not_equal_to_literal_with_same_text(self):
        assert URI("http://a/x") != Literal("http://a/x")


class TestLiteral:
    def test_plain_equality(self):
        assert Literal("hi") == Literal("hi")

    def test_language_distinguishes(self):
        assert Literal("hi", language="en") != Literal("hi")

    def test_datatype_and_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=URI("http://t"), language="en")

    def test_int_coercion(self):
        lit = Literal(42)
        assert lit.lexical == "42"
        assert lit.datatype.local_name == "integer"
        assert lit.to_python() == 42

    def test_float_coercion(self):
        assert Literal(1.5).to_python() == 1.5

    def test_bool_coercion(self):
        lit = Literal(True)
        assert lit.lexical == "true"
        assert lit.to_python() is True

    def test_bool_before_int(self):
        # bool is a subclass of int; make sure it maps to xsd:boolean
        assert Literal(False).datatype.local_name == "boolean"

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_escapes_quotes_and_newlines(self):
        assert Literal('a"b\n').n3() == '"a\\"b\\n"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"


class TestBNode:
    def test_fresh_ids_unique(self):
        assert BNode() != BNode()

    def test_explicit_id_equality(self):
        assert BNode("b1") == BNode("b1")

    def test_n3(self):
        assert BNode("b7").n3() == "_:b7"


class TestVariable:
    def test_equality(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_n3(self):
        assert Variable("X").n3() == "?X"


class TestNamespace:
    def test_attribute_access(self):
        ns = Namespace("http://a/ns#")
        assert ns.C1 == URI("http://a/ns#C1")

    def test_item_access(self):
        ns = Namespace("http://a/ns#")
        assert ns["prop1"] == URI("http://a/ns#prop1")

    def test_contains(self):
        ns = Namespace("http://a/ns#")
        assert ns.C1 in ns
        assert URI("http://other/x") not in ns

    def test_contains_rejects_literals(self):
        ns = Namespace("http://a/ns#")
        assert Literal("http://a/ns#x") not in ns

    def test_equality(self):
        assert Namespace("http://a/") == Namespace("http://a/")

    def test_dunder_not_minted(self):
        ns = Namespace("http://a/")
        with pytest.raises(AttributeError):
            ns.__wrapped__
